#include "obs/history.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"

namespace dnc::obs::history {
namespace {

// Leaked, like the metrics and flight state: a solve may finish on a driver
// thread while static destructors run.
struct State {
  std::mutex mu;  // guards the path and file rotation
  std::string path;
};

State& state() {
  static State* s = new State;
  return *s;
}

bool configure(const char* value) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = value ? value : "";
  return value != nullptr;
}

constinit env::Gate gate{"DNC_HISTORY", "dnc_history.jsonl", configure};

/// Writes `line` (newline-terminated) with a single write(2) so concurrent
/// appenders -- including other processes -- interleave whole lines only.
bool append_line(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  const char* p = line.c_str();
  std::size_t left = line.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w <= 0) {
      ok = false;
      break;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  ::close(fd);
  return ok;
}

void rotate_if_needed_locked(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  if (st.st_size < kMaxBytes) return;
  // One previous generation is enough for a bounded-disk archive; a rename
  // is atomic, so a concurrent appender lands either in the old or the new
  // generation, never in a torn file.
  ::rename(path.c_str(), (path + ".1").c_str());
}

}  // namespace

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

std::string archive_path() {
  State& s = state();
  (void)gate.enabled();  // first call reads the env
  std::lock_guard<std::mutex> lock(s.mu);
  return s.path;
}

bool append(const SolveReport& report) {
  if (!enabled()) return false;
  const std::string line = flight::compact_json(report.to_json()) + "\n";
  // Rotation check and append under the process lock; cross-process safety
  // comes from the atomic rename + O_APPEND single-write combination.
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  rotate_if_needed_locked(s.path);
  return append_line(s.path, line);
}

bool Key::matches(const SolveReport& r) const {
  if (!driver.empty() && driver != r.driver) return false;
  if (!family.empty() && family != r.family) return false;
  if (!precision.empty() && precision != r.precision) return false;
  if (!commit.empty() && commit != r.git_commit) return false;
  if (n > 0 && n != r.n) return false;
  if (workers > 0 && workers != r.workers()) return false;
  return true;
}

bool parse_key(const std::string& spec, Key& out, std::string* err) {
  out = Key{};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      if (err) *err = "key field '" + field + "' has no '=' (want name=value)";
      return false;
    }
    const std::string name = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (name == "driver") {
      out.driver = value;
    } else if (name == "family") {
      out.family = value;
    } else if (name == "precision" || name == "prec") {
      out.precision = value;
    } else if (name == "commit") {
      out.commit = value;
    } else if (name == "n") {
      out.n = std::strtol(value.c_str(), nullptr, 10);
      if (out.n <= 0) {
        if (err) *err = "key field n wants a positive integer, got '" + value + "'";
        return false;
      }
    } else if (name == "workers") {
      out.workers = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      if (out.workers <= 0) {
        if (err) *err = "key field workers wants a positive integer, got '" + value + "'";
        return false;
      }
    } else {
      if (err)
        *err = "unknown key field '" + name +
               "' (known: driver, family, precision, commit, n, workers)";
      return false;
    }
  }
  return true;
}

bool load_file(const std::string& path, std::vector<SolveReport>& out, std::string* err,
               long* skipped) {
  out.clear();
  if (skipped) *skipped = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    json::Value v;
    SolveReport r;
    const json::Value* counters = json::parse(line, v) ? v.find("counters") : nullptr;
    if (counters && counters->is_object() && parse_solve_report_value(v, r))
      out.push_back(std::move(r));
    else if (skipped)
      ++*skipped;
  }
  return true;
}

std::vector<SolveReport> series(const std::vector<SolveReport>& reports, const Key& key) {
  std::vector<SolveReport> out;
  for (const SolveReport& r : reports)
    if (key.matches(r)) out.push_back(r);
  return out;
}

std::vector<SolveReport> latest_per_commit(const std::vector<SolveReport>& reports,
                                           const Key& key) {
  std::vector<SolveReport> out;  // first-seen commit order, newest report each
  for (const SolveReport& r : reports) {
    if (!key.matches(r)) continue;
    bool found = false;
    for (SolveReport& o : out) {
      if (o.git_commit == r.git_commit) {
        o = r;  // file order is append order: later = newer
        found = true;
        break;
      }
    }
    if (!found) out.push_back(r);
  }
  return out;
}

std::string render_series(const std::vector<SolveReport>& series, const std::string& title) {
  std::string out;
  appendf(out, "=== history: %s (%zu records) ===\n", title.c_str(), series.size());
  if (series.empty()) {
    out += "(no matching records)\n";
    return out;
  }
  double lo = series.front().seconds, hi = lo;
  std::vector<double> secs;
  secs.reserve(series.size());
  for (const SolveReport& r : series) {
    lo = std::min(lo, r.seconds);
    hi = std::max(hi, r.seconds);
    secs.push_back(r.seconds);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  appendf(out, "%-10s %-20s %-12s %6s %3s %10s %8s  %s\n", "commit", "timestamp", "driver",
          "n", "wrk", "seconds", "defl", "trend");
  constexpr int kBar = 24;
  for (const SolveReport& r : series) {
    const int bar = 1 + static_cast<int>((r.seconds - lo) / span * (kBar - 1));
    const std::string commit = r.git_commit.empty() ? "-" : r.git_commit.substr(0, 9);
    appendf(out, "%-10s %-20s %-12s %6ld %3d %10.6f %7.1f%%  ", commit.c_str(),
            r.timestamp.empty() ? "-" : r.timestamp.c_str(), r.driver.c_str(), r.n,
            r.workers(), r.seconds, 100.0 * r.deflated_fraction());
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  std::sort(secs.begin(), secs.end());
  const double median = secs[secs.size() / 2];
  appendf(out, "min %.6f s   median %.6f s   max %.6f s   (max/min %.2fx)\n", lo, median,
          hi, lo > 0.0 ? hi / lo : 0.0);
  return out;
}

}  // namespace dnc::obs::history
