#include "obs/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "obs/report.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs::metrics {
namespace {

constexpr int kMaxMetrics = 256;

// A metric's scraped fields, with its histogram buckets kept dense.
struct MetricInfo {
  MetricSnapshot snap;                 // snap.buckets stays empty
  std::vector<std::uint64_t> buckets;  // kHistBuckets cells, histograms only
};

// Leaked singleton: the at-exit exporter may still be scraping while
// static destructors run elsewhere.
struct State {
  std::mutex mu;
  std::vector<MetricInfo> metrics;    // under mu
  std::map<std::string, int> index;  // name\x01labels -> id
  std::atomic<unsigned long> export_seq{0};
  std::string export_path;  // under mu; "" = in-memory only
  bool exporter_installed = false;
};

State& state() {
  static State* s = new State;
  return *s;
}

bool configure(const char* value) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.export_path = value ? value : "";
  return value != nullptr;
}

constinit env::Gate gate{"DNC_METRICS", "", configure};

const char* kind_str(Kind k) {
  switch (k) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "counter";
}

}  // namespace

// --- bucketing ------------------------------------------------------------

int bucket_index(double v) noexcept {
  if (!(v >= std::ldexp(1.0, kHistMinExp))) return 0;  // NaN, <=0, underflow
  if (v >= std::ldexp(1.0, kHistMaxExp)) return kHistBuckets - 1;
  int e;
  double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  double f = std::log2(2.0 * m);  // fractional octave position in [0, 1)
  int sub = static_cast<int>(f * kHistSub);
  if (sub >= kHistSub) sub = kHistSub - 1;
  if (sub < 0) sub = 0;
  int idx = 1 + (e - 1 - kHistMinExp) * kHistSub + sub;
  return std::clamp(idx, 1, kHistBuckets - 2);
}

double bucket_lower(int i) noexcept {
  if (i <= 0) return 0.0;
  if (i >= kHistBuckets - 1) return std::ldexp(1.0, kHistMaxExp);
  int k = i - 1;
  return std::exp2(kHistMinExp + k / kHistSub +
                   static_cast<double>(k % kHistSub) / kHistSub);
}

double bucket_upper(int i) noexcept {
  if (i <= 0) return std::ldexp(1.0, kHistMinExp);
  if (i >= kHistBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(i + 1);
}

// --- gate -----------------------------------------------------------------

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

// --- registration + recording ---------------------------------------------

Id register_metric(Kind kind, const std::string& name, const std::string& labels,
                   const std::string& help) {
  if (!enabled()) return {};
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::string key = name;
  key.push_back('\x01');
  key += labels;
  auto it = s.index.find(key);
  if (it != s.index.end()) return {it->second};
  if (s.metrics.size() >= kMaxMetrics) return {};
  MetricInfo& mi = s.metrics.emplace_back();
  mi.snap.kind = kind;
  mi.snap.name = name;
  mi.snap.labels = labels;
  mi.snap.help = help;
  if (kind == Kind::Histogram) mi.buckets.assign(kHistBuckets, 0);
  const int id = static_cast<int>(s.metrics.size()) - 1;
  s.index.emplace(std::move(key), id);
  if (!s.exporter_installed) {
    s.exporter_installed = true;
    if (!s.export_path.empty()) std::atexit([] { export_now(); });
  }
  return {id};
}

namespace {

// Applies f to metric `id` under the registry mutex when it exists and is
// of `kind`; otherwise does nothing.
template <class F>
void record(Id id, Kind kind, F&& f) noexcept {
  if (!enabled() || !id.valid()) return;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (static_cast<std::size_t>(id.v) < s.metrics.size() && s.metrics[id.v].snap.kind == kind)
    f(s.metrics[id.v]);
}

}  // namespace

void add(Id id, double delta) noexcept {
  record(id, Kind::Counter, [&](MetricInfo& m) { m.snap.value += delta; });
}

void set_gauge(Id id, double value) noexcept {
  record(id, Kind::Gauge, [&](MetricInfo& m) { m.snap.value = value; });
}

void observe(Id id, double value) noexcept {
  record(id, Kind::Histogram, [&](MetricInfo& m) {
    ++m.snap.count;
    m.snap.sum += value;
    ++m.buckets[bucket_index(value)];
  });
}

// --- scraping -------------------------------------------------------------

double MetricSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * count)));
  std::uint64_t cum = 0;
  for (const auto& [i, c] : buckets) {
    cum += c;
    if (cum >= target) {
      if (i == 0) return bucket_upper(0) / 2;
      if (i == kHistBuckets - 1) return bucket_lower(i);
      return std::sqrt(bucket_lower(i) * bucket_upper(i));
    }
  }
  return buckets.empty() ? 0.0 : bucket_lower(buckets.back().first);
}

namespace {

// Copies every metric under the registry mutex. With `best_effort`, gives
// up (returns false) instead of waiting when the mutex is held.
bool scrape_into(Snapshot& out, bool best_effort) {
  out.pid = static_cast<long>(::getpid());
  out.hostname = current_hostname();
  out.timestamp = iso8601_timestamp_utc();
  State& s = state();
  std::unique_lock<std::mutex> lk(s.mu, std::defer_lock);
  if (!best_effort)
    lk.lock();
  else if (!lk.try_lock())
    return false;
  for (const MetricInfo& m : s.metrics) {
    MetricSnapshot& ms = out.metrics.emplace_back(m.snap);
    for (std::size_t j = 0; j < m.buckets.size(); ++j)
      if (m.buckets[j]) ms.buckets.emplace_back(static_cast<int>(j), m.buckets[j]);
  }
  return true;
}

}  // namespace

Snapshot scrape() {
  Snapshot out;
  scrape_into(out, /*best_effort=*/false);
  return out;
}

bool try_scrape(Snapshot& out) { return scrape_into(out, /*best_effort=*/true); }

std::string prometheus_text(const Snapshot& s) {
  std::string out;
  appendf(out, "# dnc metrics pid=%ld host=%s time=%s\n", s.pid, s.hostname.c_str(),
          s.timestamp.c_str());
  // Prometheus requires every series of a family to be contiguous: group by
  // name, preserving first-registration order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const MetricSnapshot*>> fam;
  for (const auto& m : s.metrics) {
    auto [it, fresh] = fam.try_emplace(m.name);
    if (fresh) order.push_back(m.name);
    it->second.push_back(&m);
  }
  for (const auto& name : order) {
    const auto& series = fam[name];
    appendf(out, "# HELP %s %s\n", name.c_str(), series[0]->help.c_str());
    appendf(out, "# TYPE %s %s\n", name.c_str(), kind_str(series[0]->kind));
    for (const MetricSnapshot* m : series) {
      const char* lb = m->labels.c_str();
      if (m->kind == Kind::Histogram) {
        std::uint64_t cum = 0;
        for (const auto& [i, c] : m->buckets) {
          cum += c;
          appendf(out, "%s_bucket{%s%sle=\"%.9g\"} %llu\n", name.c_str(), lb,
                  m->labels.empty() ? "" : ",", bucket_upper(i),
                  static_cast<unsigned long long>(cum));
        }
        appendf(out, "%s_bucket{%s%sle=\"+Inf\"} %llu\n", name.c_str(), lb,
                m->labels.empty() ? "" : ",",
                static_cast<unsigned long long>(m->count));
        if (m->labels.empty()) {
          appendf(out, "%s_sum %.17g\n", name.c_str(), m->sum);
          appendf(out, "%s_count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(m->count));
        } else {
          appendf(out, "%s_sum{%s} %.17g\n", name.c_str(), lb, m->sum);
          appendf(out, "%s_count{%s} %llu\n", name.c_str(), lb,
                  static_cast<unsigned long long>(m->count));
        }
      } else if (m->labels.empty()) {
        appendf(out, "%s %.17g\n", name.c_str(), m->value);
      } else {
        appendf(out, "%s{%s} %.17g\n", name.c_str(), lb, m->value);
      }
    }
  }
  return out;
}

std::string json_text(const Snapshot& s) {
  std::string out;
  out += "{\n";
  appendf(out, "  \"schema\": \"dnc-metrics-v1\",\n  \"pid\": %ld,\n", s.pid);
  appendf(out, "  \"hostname\": \"%s\",\n", rt::json_escape(s.hostname).c_str());
  appendf(out, "  \"timestamp\": \"%s\",\n", rt::json_escape(s.timestamp).c_str());
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const MetricSnapshot& m = s.metrics[i];
    out += i ? ",\n    {" : "\n    {";
    appendf(out, "\"kind\": \"%s\", \"name\": \"%s\", \"labels\": \"%s\"", kind_str(m.kind),
            rt::json_escape(m.name).c_str(), rt::json_escape(m.labels).c_str());
    appendf(out, ", \"help\": \"%s\"", rt::json_escape(m.help).c_str());
    if (m.kind == Kind::Histogram) {
      appendf(out, ", \"count\": %llu, \"sum\": %.17g, \"buckets\": [",
              static_cast<unsigned long long>(m.count), m.sum);
      for (std::size_t j = 0; j < m.buckets.size(); ++j)
        appendf(out, "%s[%d, %llu]", j ? ", " : "", m.buckets[j].first,
                static_cast<unsigned long long>(m.buckets[j].second));
      out += "]";
    } else {
      appendf(out, ", \"value\": %.17g", m.value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool parse_snapshot(const std::string& text, Snapshot& out, std::string* err) {
  json::Value root;
  if (!json::parse(text, root, err)) return false;
  if (!root.is_object() || root.member_string("schema", "") != "dnc-metrics-v1") {
    if (err) *err = "not a dnc-metrics-v1 snapshot";
    return false;
  }
  out = Snapshot{};
  out.pid = static_cast<long>(root.member_number("pid", 0));
  out.hostname = root.member_string("hostname", "");
  out.timestamp = root.member_string("timestamp", "");
  const json::Value* ms = root.find("metrics");
  if (!ms || !ms->is_array()) {
    if (err) *err = "snapshot has no metrics array";
    return false;
  }
  for (const json::Value& v : ms->array) {
    MetricSnapshot m;
    std::string kind = v.member_string("kind", "counter");
    m.kind = kind == "gauge" ? Kind::Gauge
                             : kind == "histogram" ? Kind::Histogram : Kind::Counter;
    m.name = v.member_string("name", "");
    m.labels = v.member_string("labels", "");
    m.help = v.member_string("help", "");
    m.value = v.member_number("value", 0.0);
    m.count = static_cast<std::uint64_t>(v.member_number("count", 0));
    m.sum = v.member_number("sum", 0.0);
    if (const json::Value* b = v.find("buckets"); b && b->is_array())
      for (const json::Value& pair : b->array)
        if (pair.is_array() && pair.array.size() == 2)
          m.buckets.emplace_back(static_cast<int>(pair.array[0].number_or(0)),
                                 static_cast<std::uint64_t>(pair.array[1].number_or(0)));
    out.metrics.push_back(std::move(m));
  }
  return true;
}

namespace {

std::string series_key(const MetricSnapshot& m) {
  return m.labels.empty() ? m.name : m.name + "{" + m.labels + "}";
}

void render_one(std::string& out, const MetricSnapshot& m) {
  std::string key = series_key(m);
  if (m.kind == Kind::Histogram) {
    double mean = m.count ? m.sum / static_cast<double>(m.count) : 0.0;
    appendf(out, "%-9s %-64s count=%llu mean=%.4g p50=%.4g p90=%.4g p99=%.4g\n",
            kind_str(m.kind), key.c_str(), static_cast<unsigned long long>(m.count), mean,
            m.quantile(0.50), m.quantile(0.90), m.quantile(0.99));
  } else {
    appendf(out, "%-9s %-64s %.10g\n", kind_str(m.kind), key.c_str(), m.value);
  }
}

}  // namespace

std::string render_snapshot(const Snapshot& s) {
  std::string out;
  appendf(out, "metrics snapshot  pid=%ld  host=%s  time=%s  (%zu series)\n", s.pid,
          s.hostname.c_str(), s.timestamp.c_str(), s.metrics.size());
  for (const auto& m : s.metrics) render_one(out, m);
  return out;
}

std::string render_diff(const Snapshot& a, const Snapshot& b) {
  std::string out;
  appendf(out, "metrics diff  %s (%s)  ->  %s (%s)\n", a.timestamp.c_str(),
          a.hostname.c_str(), b.timestamp.c_str(), b.hostname.c_str());
  std::map<std::string, const MetricSnapshot*> in_a;
  for (const auto& m : a.metrics) in_a.emplace(series_key(m), &m);
  for (const auto& mb : b.metrics) {
    std::string key = series_key(mb);
    auto it = in_a.find(key);
    if (it == in_a.end()) {
      render_one(out, mb);  // new series: the delta is the whole series
      continue;
    }
    const MetricSnapshot& ma = *it->second;
    in_a.erase(it);
    if (mb.kind == Kind::Gauge) {
      if (ma.value != mb.value)
        appendf(out, "%-9s %-64s %.10g -> %.10g\n", "gauge", key.c_str(), ma.value,
                mb.value);
      continue;
    }
    if (mb.kind == Kind::Counter) {
      double delta = mb.value - ma.value;
      if (delta != 0.0) appendf(out, "%-9s %-64s +%.10g\n", "counter", key.c_str(), delta);
      continue;
    }
    // Histogram: subtract bucket-wise, then summarise the delta population.
    MetricSnapshot d = mb;
    d.count = mb.count >= ma.count ? mb.count - ma.count : 0;
    d.sum = mb.sum - ma.sum;
    std::map<int, std::uint64_t> db(mb.buckets.begin(), mb.buckets.end());
    for (const auto& [i, c] : ma.buckets) {
      auto bit = db.find(i);
      if (bit != db.end()) bit->second = bit->second >= c ? bit->second - c : 0;
    }
    d.buckets.assign(db.begin(), db.end());
    d.buckets.erase(std::remove_if(d.buckets.begin(), d.buckets.end(),
                                   [](const auto& p) { return p.second == 0; }),
                    d.buckets.end());
    if (d.count) render_one(out, d);
  }
  for (const auto& [key, ma] : in_a)
    appendf(out, "%-9s %-64s (removed)\n", kind_str(ma->kind), key.c_str());
  return out;
}

// --- export ---------------------------------------------------------------

std::string configured_export_path() {
  State& s = state();
  (void)enabled();  // force env parse
  std::lock_guard<std::mutex> lk(s.mu);
  return s.export_path;
}

std::string export_now(const std::string& path) {
  std::string base = path.empty() ? configured_export_path() : path;
  if (base.empty()) return "";
  State& s = state();
  unsigned long seq = s.export_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string prom_path = expand_path_placeholders(base, seq);
  const Snapshot snap = scrape();
  if (!write_text_file(prom_path, prometheus_text(snap))) return "";
  write_text_file(prom_path + ".json", json_text(snap));
  return prom_path;
}

// --- introspection --------------------------------------------------------

std::size_t registry_size() noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.metrics.size();
}

void reset_for_tests() {
  State& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.metrics.clear();
    s.index.clear();
    s.export_seq.store(0, std::memory_order_relaxed);
  }
  gate.refresh();
}

}  // namespace dnc::obs::metrics
