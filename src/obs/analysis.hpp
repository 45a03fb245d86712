// Trace analytics: the answer layer on top of the raw capture in rt::Trace.
//
// PR 2 made every solve record per-task durations, DAG edges, ready times
// and queue depth; this header turns that into the quantities a performance
// post-mortem actually asks for (the same trace-driven analysis StarNEig
// and the task-based QR/QZ solvers use to defend scalability claims):
//
//   * critical_path     -- the longest weighted task chain (T-infinity),
//                          as an ordered chain plus per-kind attribution:
//                          "which kernel do I have to make faster before
//                          more cores can help";
//   * parallelism_profile -- running / ready task counts over time, i.e.
//                          how much concurrency the DAG actually exposed
//                          at every instant;
//   * span_law          -- T1, T-inf, average parallelism, and the
//                          work/span bounds on P-worker makespan (Brent);
//   * replay_trace      -- the DAG replay simulator: priority-aware
//                          list scheduling on P virtual workers, driven by
//                          the Trace alone, so it works on live solves
//                          (SolveStats::simulated) and on traces loaded
//                          from disk (`dnc trace --load`) alike.
//
// All quantities use the same durations (max(0, t_end - t_start);
// never-executed events contribute zero work), so replay_trace's
// critical_path is critical_path().length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/simulator.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs {

struct CriticalPath {
  /// T-infinity: summed duration of the heaviest dependency chain.
  double length = 0.0;
  /// Total work T1 of the trace, for the span share (length / total_work).
  double total_work = 0.0;
  /// The chain itself, in execution order (first task first); indices into
  /// Trace::events.
  std::vector<std::size_t> chain;
  /// Time attribution of the chain per kind, index-aligned with
  /// Trace::kind_names (unknown kinds are dropped).
  std::vector<double> time_by_kind;

  /// Human-readable rendering: per-kind attribution table plus the chain
  /// (collapsing runs of equal-kind tasks), `max_rows` chain rows.
  std::string render(const rt::Trace& trace, int max_rows = 30) const;
};

/// Longest weighted path over Trace::events / Trace::edges. Edges whose
/// endpoints are not in the trace are ignored; a cyclic edge set (possible
/// only for hand-built or corrupted traces) truncates at the cycle.
CriticalPath critical_path(const rt::Trace& trace);

/// One step of the concurrency step-function; valid from t until the next
/// sample's t.
struct ProfileSample {
  double t = 0.0;   ///< trace-clock time of the change
  int running = 0;  ///< tasks executing at t
  int ready = 0;    ///< tasks ready (dependencies met) but not yet started
};

struct ParallelismProfile {
  std::vector<ProfileSample> samples;
  double t0 = 0.0;               ///< first event time
  double t1 = 0.0;               ///< last event time
  int max_running = 0;
  int max_ready = 0;
  /// Time-integral of the running count == Trace::total_busy().
  double running_integral = 0.0;
  /// running_integral / (t1 - t0): average exposed concurrency.
  double avg_running = 0.0;

  /// ASCII rendering: `width` time columns, bar height = time-averaged
  /// running count of the column (capped at `height` rows), '-' marks the
  /// ready backlog where it exceeds the running count.
  std::string ascii(int width = 100, int height = 16) const;
  std::string to_json() const;
};

/// Builds the profile from task start/end events plus t_ready (events with
/// t_ready == 0, i.e. unknown, contribute to `running` only).
ParallelismProfile parallelism_profile(const rt::Trace& trace);

/// Work/span law summary of a trace.
struct SpanLaw {
  double t1 = 0.0;           ///< total work
  double t_inf = 0.0;        ///< critical path
  double parallelism = 0.0;  ///< t1 / t_inf: speedup ceiling
  /// Greedy-scheduler bounds on the P-worker makespan: any list schedule
  /// lands in [lower, upper] (ignoring bandwidth effects).
  double lower_bound(int workers) const;  ///< max(t1/P, t_inf)
  double upper_bound(int workers) const;  ///< t1/P + t_inf
  double predicted_speedup(int workers) const;  ///< t1 / lower_bound(P)
};

SpanLaw span_law(const rt::Trace& trace);

/// Replays the traced DAG on `workers` virtual cores under priority-aware
/// list scheduling (rt::SimPolicy; priorities from TraceEvent::priority)
/// with the bandwidth-sharing model of rt::MachineModel (memory-bound kinds
/// from Trace::kind_memory_bound). Child subtasks are not replayed: their
/// parent's duration covers them. What-if sweeps work on loaded traces too,
/// including what-if-the-scheduler-ignored-priorities (SimPolicy::Fifo).
rt::SimulationResult replay_trace(const rt::Trace& trace, int workers,
                                  const rt::MachineModel& model = rt::MachineModel{},
                                  rt::SimPolicy policy = rt::SimPolicy::Priority);

}  // namespace dnc::obs
