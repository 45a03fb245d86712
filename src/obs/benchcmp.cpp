#include "obs/benchcmp.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/json.hpp"
#include "common/text.hpp"

namespace dnc::obs {
namespace {

bool extract_artifact(const json::Value& root, BenchArtifact& out, std::string* err,
                      const std::string& ctx) {
  out = BenchArtifact{};
  if (!root.is_object()) {
    if (err) *err = ctx + "artifact is not a JSON object";
    return false;
  }
  out.schema = root.member_string("schema", "");
  if (const json::Value* meta = root.find("metadata"); meta && meta->is_object()) {
    for (const auto& [k, v] : meta->object)
      out.metadata.emplace_back(k, v.is_string() ? v.string : "");
  }
  const json::Value* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    if (err) *err = ctx + "artifact has no entries array";
    return false;
  }
  for (const json::Value& e : entries->array) {
    if (!e.is_object()) continue;
    BenchEntry be;
    be.driver = e.member_string("driver", "?");
    be.family = e.member_string("family", "?");
    be.precision = e.member_string("precision", "f64");
    be.n = static_cast<long>(e.member_number("n", 0.0));
    be.reps = static_cast<int>(e.member_number("reps", 0.0));
    if (const json::Value* s = e.find("seconds"); s && s->is_object()) {
      be.median = s->member_number("median", 0.0);
      be.q1 = s->member_number("q1", 0.0);
      be.q3 = s->member_number("q3", 0.0);
      be.min = s->member_number("min", 0.0);
    }
    out.entries.push_back(std::move(be));
  }
  // compare pairs entries by key, so a repeated key has no defined partner.
  std::set<std::string> keys;
  for (const BenchEntry& be : out.entries) {
    if (!keys.insert(be.key()).second) {
      if (err) *err = ctx + "artifact has duplicate entry " + be.key();
      return false;
    }
  }
  return true;
}

}  // namespace

std::string BenchEntry::key() const {
  char buf[160];
  if (precision.empty() || precision == "f64")
    std::snprintf(buf, sizeof buf, "%s|%s|%ld", driver.c_str(), family.c_str(), n);
  else
    std::snprintf(buf, sizeof buf, "%s|%s|%ld|%s", driver.c_str(), family.c_str(), n,
                  precision.c_str());
  return buf;
}

bool parse_bench_artifact(const std::string& json_text, BenchArtifact& out, std::string* err) {
  json::Value root;
  if (!json::parse(json_text, root, err)) return false;
  return extract_artifact(root, out, err, "");
}

bool load_bench_artifact(const std::string& path, BenchArtifact& out, std::string* err) {
  json::Value root;
  if (!json::parse_file(path, root, err)) return false;
  return extract_artifact(root, out, err, path + ": ");
}

CompareResult compare_bench_artifacts(const BenchArtifact& base, const BenchArtifact& current,
                                      double threshold, BenchStat stat, double min_seconds) {
  const auto value_of = [stat](const BenchEntry& e) {
    return stat == BenchStat::kMin ? e.min : e.median;
  };
  std::map<std::string, const BenchEntry*> base_by_key;
  for (const BenchEntry& e : base.entries) base_by_key.emplace(e.key(), &e);

  CompareResult res;
  std::map<std::string, bool> base_matched;
  for (const auto& [k, e] : base_by_key) base_matched.emplace(k, false);

  for (const BenchEntry& cur : current.entries) {
    const auto it = base_by_key.find(cur.key());
    if (it == base_by_key.end()) {
      res.only_in_current.push_back(cur.key());
      continue;
    }
    base_matched[it->first] = true;
    CompareRow row;
    row.key = cur.key();
    row.driver = cur.driver;
    row.family = cur.family;
    row.precision = cur.precision.empty() ? "f64" : cur.precision;
    row.n = cur.n;
    row.base_seconds = value_of(*it->second);
    row.cur_seconds = value_of(cur);
    row.ratio = row.base_seconds > 0.0 ? row.cur_seconds / row.base_seconds : 1.0;
    if (row.base_seconds < min_seconds && row.cur_seconds < min_seconds)
      row.verdict = Verdict::kWithinNoise;
    else if (row.ratio > 1.0 + threshold)
      row.verdict = Verdict::kRegression;
    else if (row.ratio < 1.0 - threshold)
      row.verdict = Verdict::kImprovement;
    else
      row.verdict = Verdict::kWithinNoise;
    switch (row.verdict) {
      case Verdict::kRegression: ++res.regressions; break;
      case Verdict::kImprovement: ++res.improvements; break;
      case Verdict::kWithinNoise: ++res.within_noise; break;
    }
    res.rows.push_back(row);
  }
  for (const auto& [k, matched] : base_matched)
    if (!matched) res.only_in_base.push_back(k);
  std::sort(res.rows.begin(), res.rows.end(),
            [](const CompareRow& a, const CompareRow& b) { return a.ratio > b.ratio; });
  return res;
}

std::string CompareResult::render(double threshold) const {
  std::string out;
  appendf(out, "%-40s %12s %12s %8s  %s\n", "entry (driver|family|n)", "base(s)", "cur(s)",
          "ratio", "verdict");
  for (const CompareRow& r : rows) {
    const char* v = r.verdict == Verdict::kRegression     ? "REGRESSION"
                    : r.verdict == Verdict::kImprovement  ? "improvement"
                                                          : "ok";
    appendf(out, "%-40s %12.6f %12.6f %8.3f  %s\n", r.key.c_str(), r.base_seconds,
            r.cur_seconds, r.ratio, v);
  }
  for (const std::string& k : only_in_base)
    appendf(out, "%-40s (only in baseline, skipped)\n", k.c_str());
  for (const std::string& k : only_in_current)
    appendf(out, "%-40s (only in current, skipped)\n", k.c_str());
  appendf(out, "compared %zu entries at %.0f%% threshold: ", rows.size(), 100.0 * threshold);
  if (regressions > 0)
    appendf(out, "%d regression%s (worst ratio %.3f) -- GATE FAILED\n", regressions,
            regressions == 1 ? "" : "s", rows.empty() ? 0.0 : rows.front().ratio);
  else if (improvements > 0)
    appendf(out, "no regressions, %d improvement%s, %d within noise\n", improvements,
            improvements == 1 ? "" : "s", within_noise);
  else
    appendf(out, "all within noise\n");
  return out;
}

std::string bench_metadata(const BenchArtifact& artifact, const std::string& key) {
  for (const auto& [k, v] : artifact.metadata)
    if (k == key) return v;
  return "";
}

std::string bench_report_filename(const std::string& driver, const std::string& family,
                                  const std::string& precision, long n) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "report_%s_%s_%s_n%ld.json", driver.c_str(),
                family.c_str(), precision.empty() ? "f64" : precision.c_str(), n);
  return buf;
}

}  // namespace dnc::obs
