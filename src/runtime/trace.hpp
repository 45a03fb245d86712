// Execution traces: per-task (worker, start, end) records plus rendering
// helpers. The ASCII Gantt view reproduces the structure of the paper's
// Figures 3 and 4 (per-core activity over time, coloured by kernel).
//
// Beyond the raw (worker, start, end) tuples a Trace carries the scheduler
// observability captured by the engine: when each task became ready (so
// ready->start waits are derivable), the sampled ready-queue depth, the
// per-worker idle time, the dependency edges of the executed DAG, and the
// optional per-task annotations (merge level / block size / panel index)
// set by the submitter. src/obs/ turns all of this into a Perfetto trace
// with flow events and counter tracks.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dnc::rt {

/// Number of per-task hardware-counter slots carried on every TraceEvent.
/// What each slot means depends on the backend that sampled it (see
/// Trace::hwc_backend / hwc_slot_names): the perf backend fills
/// {cycles, instructions, llc_misses, llc_references}; the rusage fallback
/// fills {minor_faults, major_faults, vol_ctx_switches, invol_ctx_switches}.
inline constexpr int kHwcSlots = 4;

struct TraceEvent {
  std::uint64_t task_id;
  int kind;
  int worker;
  double t_start;
  double t_end;
  /// When the task entered the ready queue (same clock as t_start; 0 when
  /// the producing side predates the instrumentation, e.g. simulated
  /// schedules).
  double t_ready = 0.0;
  // Submitter annotations (-1 = unset): merge-tree level, block size of the
  // owning (sub)problem, panel index within the merge.
  int level = -1;
  long size = -1;
  long panel = -1;
  /// Scheduling priority the task ran with (higher drains first). Kept last
  /// among the positionally-initialised fields so aggregate initialisation
  /// of older code stays valid.
  int priority = 0;
  /// Hardware-counter deltas sampled around the task body (all zero when
  /// sampling was off; interpret via Trace::hwc_backend / hwc_slot_names).
  /// Self deltas for tasks that help-executed nested subtasks (see `nested`).
  std::array<std::uint64_t, kHwcSlots> hwc{};
  /// Id of the spawning parent task for nested subtasks (task-internal
  /// spawning), -1 for ordinary graph tasks. Child events carry the work a
  /// parent fanned out; their time lies inside the parent's window when the
  /// parent's own worker help-executed them.
  long long parent = -1;
  /// Seconds of directly-nested helped tasks executed by the same worker
  /// inside this event's window. Self time = (t_end - t_start) - nested;
  /// total_busy()/busy_by_kind() use self time so nothing double-counts.
  double nested = 0.0;

  bool is_child() const { return parent >= 0; }
  double self_duration() const {
    const double d = t_end - t_start - nested;
    return d > 0.0 ? d : 0.0;
  }
};

/// One sampled point of the ready-queue depth (taken on every enqueue and
/// dequeue, timestamps on the trace clock).
struct QueueSample {
  double t;
  int depth;
};

/// Per-worker scheduler counters, snapshotted into the trace when the run
/// finishes. `executed` counts tasks the worker ran; the acquisition-path
/// counters are only non-zero under the stealing scheduler.
struct WorkerSchedCounters {
  long executed = 0;       ///< tasks run by this worker
  long local_pops = 0;     ///< tasks taken from the worker's own deque
  long steals = 0;         ///< tasks stolen from another worker's deque
  long steal_attempts = 0; ///< victim deques probed (hit or miss)
  long failed_steals = 0;  ///< full victim scans that found nothing
  long placed = 0;         ///< ready tasks the submitter placed on this deque
};

struct Trace {
  int workers = 0;
  std::vector<std::string> kind_names;
  /// Per-kind memory-bound classification, index-aligned with kind_names
  /// (1 = bandwidth-limited). May be empty for traces predating the flag;
  /// consumers must treat a missing entry as compute-bound. Carrying this
  /// on the trace lets the what-if replay (obs::replay_trace) apply the
  /// simulator's bandwidth model without access to the original TaskGraph.
  std::vector<char> kind_memory_bound;
  std::vector<TraceEvent> events;

  /// Seconds each worker spent without a task between its first ready wait
  /// and its last executed task. Empty for simulated schedules.
  std::vector<double> worker_idle;

  /// Ready-queue depth over time. Decimated to a bounded number of samples
  /// (uniform subsampling) on long runs; use queue_depth_peak for the exact
  /// maximum. Empty for simulated schedules.
  std::vector<QueueSample> queue_samples;

  /// Exact peak of the aggregate ready-queue depth, tracked independently
  /// of the (decimated) samples. 0 for simulated schedules.
  int queue_depth_peak = 0;

  /// Per-worker scheduler counters (empty for simulated schedules).
  std::vector<WorkerSchedCounters> sched_counters;

  /// Cumulative successful-steal count over time; decimated like
  /// queue_samples. Drives the Perfetto steals counter track.
  std::vector<QueueSample> steal_samples;

  /// Dependency edges (predecessor id, successor id) of the executed DAG;
  /// drives Perfetto flow arrows.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;

  /// Backend that filled TraceEvent::hwc ("perf" / "rusage"); empty when
  /// hardware-counter sampling was off for the run.
  std::string hwc_backend;

  /// Human-readable names of the kHwcSlots counter slots, in slot order.
  /// Empty when sampling was off.
  std::vector<std::string> hwc_slot_names;

  double makespan() const;
  /// Total task execution time, never-executed events excluded.
  double total_busy() const;
  /// Fraction of worker-time spent executing tasks (1 = no idle time).
  double efficiency() const;

  /// Per-kind aggregate busy time, index-aligned with kind_names.
  std::vector<double> busy_by_kind() const;

  /// Renders an ASCII Gantt chart, `width` characters of time axis. Each
  /// worker is one row; each cell shows the initial of the dominant kernel
  /// in that time slice ('.' = idle).
  std::string ascii_gantt(int width = 100) const;

  /// One line per kind: name, count, total time, % of busy time.
  std::string kernel_summary() const;
};

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace dnc::rt
