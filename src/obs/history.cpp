#include "obs/history.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <mutex>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"

namespace dnc::obs::history {
namespace {

// Leaked, like the flight state: a solve may finish on a driver
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

/// Parses all of `v` as a positive T into `out`; false on anything else
/// ("1000x", "1e3", "-4").
template <class T>
bool parse_positive(const std::string& v, T& out) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc{} || ptr != end || x <= 0) return false;
  out = x;
  return true;
}

/// Nearest-rank quantile of `v`: the smallest value with at least a
/// fraction q of `v` at or below it (0 when `v` is empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The size class of a solve of order n (see MetricsRow): one row's latency
/// quantiles never mix n = 64 leaves with n = 16384 solves.
const char* solve_size_class(long n) {
  if (n < 256) return "xs";
  if (n < 1024) return "s";
  if (n < 4096) return "m";
  if (n < 16384) return "l";
  return "xl";
}

/// The row of `r`'s cell, with only its key fields set.
MetricsRow cell_of(const SolveReport& r) {
  MetricsRow cell;
  cell.driver = r.driver;
  cell.precision = r.precision.empty() ? "f64" : r.precision;
  cell.size_class = solve_size_class(r.n);
  return cell;
}

/// The row of `rows` in the same cell as `cell`, or nullptr.
const MetricsRow* find_row(const std::vector<MetricsRow>& rows, const MetricsRow& cell) {
  for (const MetricsRow& r : rows)
    if (r.driver == cell.driver && r.precision == cell.precision &&
        r.size_class == cell.size_class)
      return &r;
  return nullptr;
}

/// One table line of `r` ("(none)" when absent) after a `side` label.
void append_row(std::string& out, const char* side, const MetricsRow* r) {
  if (r == nullptr) {
    appendf(out, "%-2s(none)\n", side);
    return;
  }
  appendf(out,
          "%-2s%-15s %-9s %-2s %6.0f %9.6f %9.6f %9.6f %5.1f%% %7.2f %8.1e %8.1e %8.0f %6.0f "
          "%8.4f\n",
          side, r->driver.c_str(), r->precision.c_str(), r->size_class.c_str(), r->solves,
          r->p50, r->p90, r->p99, 100.0 * r->deflated_fraction, r->gemm_gflops,
          r->max_rel_residual, r->max_ortho_error, r->tasks, r->steals, r->idle_seconds);
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
    } else if (name == "n" || name == "workers") {
      if (!(name == "n" ? parse_positive(value, out.n) : parse_positive(value, out.workers))) {
        if (err) *err = "key field " + name + " wants a positive integer, got '" + value + "'";
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

std::vector<MetricsRow> metrics_rows(const std::vector<SolveReport>& reports, const Key& key) {
  std::vector<MetricsRow> rows;  // first-seen cell order
  for (const SolveReport& r : reports)
    if (key.matches(r) && !find_row(rows, cell_of(r))) rows.push_back(cell_of(r));
  for (MetricsRow& row : rows) {
    std::vector<double> secs, gflops;
    for (const SolveReport& r : reports) {
      if (!key.matches(r) || find_row(rows, cell_of(r)) != &row) continue;
      secs.push_back(r.seconds);
      row.seconds_sum += r.seconds;
      row.deflated_fraction += r.deflated_fraction();  // a sum until the mean below
      if (const double g = r.gemm_gflops(); g > 0.0) gflops.push_back(g);
      if (r.has_health) {
        row.max_rel_residual = std::max(row.max_rel_residual, r.health.max_rel_residual);
        row.max_ortho_error = std::max(row.max_ortho_error, r.health.max_ortho_error);
      }
      if (r.has_scheduler) {
        row.tasks += r.scheduler.tasks;
        row.steals += r.scheduler.steals;
        row.idle_seconds += r.scheduler.total_idle;
      }
    }
    row.solves = static_cast<double>(secs.size());
    row.p50 = quantile(secs, 0.50);
    row.p90 = quantile(secs, 0.90);
    row.p99 = quantile(secs, 0.99);
    row.gemm_gflops = quantile(gflops, 0.50);
    row.deflated_fraction /= row.solves;
  }
  return rows;
}

std::string render_metrics(const std::string& title, const std::vector<MetricsRow>& a,
                           const std::vector<MetricsRow>* b) {
  std::string out;
  appendf(out, "=== %s ===\n", title.c_str());
  if (a.empty() && (b == nullptr || b->empty())) return out + "(no matching reports)\n";
  appendf(out, "%-2s%-15s %-9s %-2s %6s %9s %9s %9s %6s %7s %8s %8s %8s %6s %8s\n", "",
          "driver", "precision", "sz", "solves", "p50_s", "p90_s", "p99_s", "defl", "gemm_gf",
          "resid", "ortho", "tasks", "steals", "idle_s");
  std::vector<MetricsRow> cells = a;  // a's cells, then those only b has
  for (const MetricsRow& r : b ? *b : a)
    if (!find_row(cells, r)) cells.push_back(r);
  for (const MetricsRow& cell : cells) {
    append_row(out, b ? "a" : "", find_row(a, cell));
    if (b) append_row(out, "b", find_row(*b, cell));
  }
  return out;
}

std::string prometheus_text(const std::vector<MetricsRow>& rows) {
  static constexpr struct {
    const char *name, *type, *help;
    double MetricsRow::*value;
  } kFamilies[] = {
      {"dnc_solves_total", "counter", "Archived solves", &MetricsRow::solves},
      {"dnc_sched_tasks_total", "counter", "Tasks run by the solves", &MetricsRow::tasks},
      {"dnc_sched_steals_total", "counter", "Successful work steals", &MetricsRow::steals},
      {"dnc_sched_worker_idle_seconds_total", "counter", "Summed per-worker idle time (s)",
       &MetricsRow::idle_seconds},
      {"dnc_deflated_fraction_mean", "gauge", "Mean deflated fraction",
       &MetricsRow::deflated_fraction},
      {"dnc_gemm_gflops_median", "gauge", "Median GEMM GFLOP/s", &MetricsRow::gemm_gflops},
      {"dnc_health_rel_residual_max", "gauge", "Worst sampled relative residual",
       &MetricsRow::max_rel_residual},
      {"dnc_health_ortho_error_max", "gauge", "Worst sampled orthogonality error",
       &MetricsRow::max_ortho_error},
  };
  const auto labels = [](const MetricsRow& r) {
    return "driver=\"" + r.driver + "\",precision=\"" + r.precision + "\",size_class=\"" +
           r.size_class + "\"";
  };
  std::string out;
  for (const auto& f : kFamilies) {
    appendf(out, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.type);
    for (const MetricsRow& r : rows)
      appendf(out, "%s{%s} %.10g\n", f.name, labels(r).c_str(), r.*f.value);
  }
  out += "# HELP dnc_solve_seconds Solve wall-clock latency (s)\n"
         "# TYPE dnc_solve_seconds summary\n";
  for (const MetricsRow& r : rows) {
    const std::string l = labels(r);
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", r.p50}, {"0.9", r.p90}, {"0.99", r.p99}};
    for (const auto& [q, v] : quantiles)
      appendf(out, "dnc_solve_seconds{%s,quantile=\"%s\"} %.10g\n", l.c_str(), q, v);
    appendf(out, "dnc_solve_seconds_sum{%s} %.10g\ndnc_solve_seconds_count{%s} %.0f\n",
            l.c_str(), r.seconds_sum, l.c_str(), r.solves);
  }
  return out;
}

}  // namespace dnc::obs::history
