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
//   * Gated by DNC_METRICS. Unset, every recording call is one relaxed
//     atomic load and a taken branch -- no registration, no thread shards,
//     no allocation anywhere (the back-to-back perf gate enforces this, and
//     tests/obs assert that the registry stays empty).
//   * Counters and histograms land in lock-free per-thread shards
//     (single-writer relaxed atomics, the counters.cpp idiom) registered
//     once per thread under a mutex and kept alive past thread exit;
//     scrape() merges the shards without stopping writers. Gauges are
//     set rarely (per solve/run) and live on the registry directly.
//   * Histograms use log2 bucketing with kHistSub sub-buckets per octave:
//     relative quantile error is bounded by 2^(1/kHistSub) - 1 (~9% at 8)
//     for any value in [2^kHistMinExp, 2^kHistMaxExp), with explicit
//     underflow/overflow buckets outside that range.
//
//   DNC_METRICS unset / "" / "0" / "off"  -> disabled
//   DNC_METRICS=1|on                      -> enabled, in-memory only
//   DNC_METRICS=<path>                    -> enabled; a snapshot is written
//     to <path> (Prometheus text) and <path>.json (JSON) at process exit
//     and, when DNC_METRICS_INTERVAL=<seconds> is set, periodically from a
//     background exporter thread. %p in the path expands to the pid, %s to
//     the export sequence number.
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

/// True when DNC_METRICS requests collection. The env is read once and
/// cached; the steady-state cost is one relaxed load + branch.
bool enabled() noexcept;

/// Re-reads DNC_METRICS / DNC_METRICS_INTERVAL (tests setenv mid-process).
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

/// Monotonic counter increment (no-op for invalid ids / disabled metrics).
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

/// Merges every thread shard into a consistent-enough view (writers keep
/// writing; each cell is read once, so counters are monotonic across
/// scrapes). Cheap: O(metrics x shards).
Snapshot scrape();

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
/// empty `path`, uses the configured one; no-op when neither exists.
/// Returns the expanded Prometheus path ("" when nothing was written).
std::string export_now(const std::string& path = "");

/// Installs the at-exit exporter and, when DNC_METRICS_INTERVAL > 0, the
/// periodic background exporter thread. Called lazily by the first
/// recording; safe to call repeatedly.
void ensure_exporter();

// --- introspection (tests, zero-overhead assertions) ---------------------

/// Number of registered metrics (0 until something records while enabled).
std::size_t registry_size() noexcept;
/// Number of per-thread shards ever allocated (0 proves no recording path
/// went past the gate).
std::size_t shard_count() noexcept;
/// Drops every registered metric and shard and re-reads the env. Only for
/// tests -- concurrent recorders must be quiesced by the caller.
void reset_for_tests();

}  // namespace dnc::obs::metrics
