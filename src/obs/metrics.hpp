// Always-on production metrics: the cross-solve half of the observability
// stack.
//
// DNC_TRACE / DNC_REPORT dump one artifact per solve -- the right shape for
// studying a single run, the wrong shape for a long-running process doing
// thousands of solves. This registry holds monotonic counters, gauges and
// HDR-style log-bucketed histograms that accumulate over the life of the
// process (solve latency by driver/size-class/precision, per-merge
// deflation ratios, GEMM GF/s, refinement steps, scheduler queue depth and
// steals) and are merged at scrape time into a Prometheus text exposition
// or a JSON snapshot.
//
// Design points:
//   * Gated by DNC_METRICS (an env::Gate). Off, every recording call is one
//     relaxed atomic load and a taken branch -- no registration, no
//     allocation anywhere (the back-to-back perf gate enforces this, and
//     tests/obs assert that the registry stays empty).
//   * Each metric's value lives on the registry under its one mutex:
//     metrics are recorded once per solve, merge or scheduler lifetime,
//     right beside a registration that already takes that lock. The
//     per-kernel algorithmic counters are the lock-free half
//     (obs/counters.hpp).
//   * Histograms use log2 bucketing with kHistSub sub-buckets per octave:
//     relative quantile error is bounded by 2^(1/kHistSub) - 1 (~9% at 8)
//     for any value in [2^kHistMinExp, 2^kHistMaxExp), with explicit
//     underflow/overflow buckets outside that range.
//
//   DNC_METRICS unset or an off spelling  -> disabled
//   DNC_METRICS=1|on|true|yes             -> enabled, in-memory only
//   DNC_METRICS=<path>                    -> enabled; a snapshot is written
//     to <path> (Prometheus text) and <path>.json (JSON) at process exit.
//     %p in the path expands to the pid, %s to the export sequence number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dnc::obs::metrics {

enum class Kind { Counter, Gauge, Histogram };

// --- histogram bucketing -------------------------------------------------
// Bucket 0 collects values < 2^kHistMinExp (including 0 and negatives);
// bucket kHistBuckets-1 collects values >= 2^kHistMaxExp. In between,
// bucket 1 + (e - kHistMinExp)*kHistSub + sub spans
// [2^(e + sub/kHistSub), 2^(e + (sub+1)/kHistSub)).
inline constexpr int kHistSub = 8;       ///< sub-buckets per octave
inline constexpr int kHistMinExp = -30;  ///< 2^-30 ~ 1e-9 (ns-scale latencies)
inline constexpr int kHistMaxExp = 24;   ///< 2^24 ~ 1.7e7
inline constexpr int kHistBuckets = (kHistMaxExp - kHistMinExp) * kHistSub + 2;

/// Bucket index for a value (see layout above).
int bucket_index(double v) noexcept;
/// Lower / upper bound of bucket `i`. bucket_lower(0) == 0,
/// bucket_upper(kHistBuckets-1) == +inf.
double bucket_lower(int i) noexcept;
double bucket_upper(int i) noexcept;

// --- gate ----------------------------------------------------------------

/// True when DNC_METRICS requests collection (env::Gate: read once and
/// cached; the steady-state cost is one relaxed load + branch).
bool enabled() noexcept;

/// Re-reads DNC_METRICS (tests setenv mid-process).
void refresh_from_env() noexcept;

// --- registration + recording --------------------------------------------

/// Stable handle; invalid ids (registry full / metrics disabled at
/// registration time) make every recording call a no-op.
struct Id {
  int v = -1;
  bool valid() const noexcept { return v >= 0; }
};

/// Registers (or finds) the metric (kind, name, labels). `labels` is the
/// pre-rendered Prometheus label body without braces, e.g.
/// `driver="taskflow",size_class="m"` -- empty for none. Same
/// (name, labels) returns the same id; a kind mismatch returns the
/// existing id (first registration wins). Returns an invalid Id when
/// metrics are disabled, so nothing is allocated for unobserved processes.
Id register_metric(Kind kind, const std::string& name, const std::string& labels,
                   const std::string& help);

// Each recording call takes the registry mutex and updates only a metric of
// its own kind: add() on a counter, set_gauge() on a gauge, observe() on a
// histogram. A call on an invalid id, on an id of another kind, or with
// metrics disabled does nothing.

/// Monotonic counter increment.
void add(Id id, double delta = 1.0) noexcept;
/// Gauge set (last write wins, process-wide).
void set_gauge(Id id, double value) noexcept;
/// Histogram observation: bumps the value's log bucket, the count and sum.
void observe(Id id, double value) noexcept;

// --- scraping ------------------------------------------------------------

struct MetricSnapshot {
  Kind kind = Kind::Counter;
  std::string name;
  std::string labels;  ///< Prometheus label body without braces ("" = none)
  std::string help;
  double value = 0.0;        ///< counter total / gauge value
  std::uint64_t count = 0;   ///< histogram observation count
  double sum = 0.0;          ///< histogram sum of observations
  /// Non-empty histogram buckets, ascending by index.
  std::vector<std::pair<int, std::uint64_t>> buckets;

  /// Quantile estimate (q in [0,1]) from the log buckets: the geometric
  /// mean of the holding bucket's bounds, so the relative error is at most
  /// 2^(1/(2*kHistSub)) - 1 for in-range values. 0 when count == 0.
  double quantile(double q) const;
};

struct Snapshot {
  long pid = 0;
  std::string hostname;
  std::string timestamp;  ///< ISO-8601 UTC scrape time
  std::vector<MetricSnapshot> metrics;  ///< registration order
};

/// Copies every metric's value under the registry mutex.
Snapshot scrape();

/// scrape() for the crash handler: returns false without waiting when the
/// registry mutex is held (the crashing thread may be the one holding it).
bool try_scrape(Snapshot& out);

/// Prometheus text exposition (one # HELP/# TYPE block per metric family;
/// histograms expose cumulative _bucket{le=...} series plus _sum/_count).
std::string prometheus_text(const Snapshot& s);

/// JSON snapshot (schema "dnc-metrics-v1"), parseable by common/json.hpp.
std::string json_text(const Snapshot& s);

/// Parses a json_text() artifact back. Returns false on malformed input.
bool parse_snapshot(const std::string& json, Snapshot& out, std::string* err = nullptr);

/// One-page text rendering of a snapshot (the `dnc metrics` view):
/// counters/gauges as rows, histograms with count/mean/p50/p90/p99.
std::string render_snapshot(const Snapshot& s);

/// Renders the delta b - a (counters/histograms subtract; gauges show
/// a -> b). Metrics present in only one snapshot are listed as such.
std::string render_diff(const Snapshot& a, const Snapshot& b);

// --- export --------------------------------------------------------------

/// Path configured via DNC_METRICS (empty when unset or set to a bare
/// enable flag like "1"). %p / %s placeholders are NOT yet expanded.
std::string configured_export_path();

/// Writes the current scrape to `path` (Prometheus text) and `path`.json
/// (JSON snapshot), expanding %p -> pid and %s -> export sequence. With an
/// empty `path`, uses the configured one; no-op when neither exists. The
/// first registration installs this, with the configured path, at exit.
/// Returns the expanded Prometheus path ("" when nothing was written).
std::string export_now(const std::string& path = "");

// --- introspection (tests, zero-overhead assertions) ---------------------

/// Number of registered metrics (0 proves no recording path went past the
/// gate: nothing is allocated until a registration while enabled).
std::size_t registry_size() noexcept;
/// Drops every registered metric and re-reads the env. Only for tests --
/// concurrent recorders must be quiesced by the caller.
void reset_for_tests();

}  // namespace dnc::obs::metrics
