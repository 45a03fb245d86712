// Types of the DAG replay simulator (obs::replay_trace in obs/analysis.hpp).
//
// The paper's evaluation ran on a dual-socket 16-core Xeon. This container
// has a single core, so parallel wall-clock cannot be measured directly.
// What CAN be measured exactly on one core is the task graph itself: every
// node's work (duration) and every edge. Parallel speedup *shape* is a
// property of that graph -- critical path vs. total work plus bandwidth
// sharing for memory-bound kernels -- so we replay the measured DAG under
// list scheduling on P virtual workers and report the predicted makespan.
// DESIGN.md documents this substitution; EXPERIMENTS.md compares shapes.
#pragma once

#include "runtime/trace.hpp"

namespace dnc::rt {

/// Machine model for bandwidth effects. The defaults mirror the paper's
/// testbed (2 sockets x 8 cores, each socket's bandwidth saturated by about
/// 4 streaming cores -- visible in the paper's Fig. 5 where the type-2 curve
/// stagnates near 4x until the second socket kicks in).
struct MachineModel {
  int sockets = 2;
  int cores_per_socket = 8;
  /// Number of concurrently running memory-bound tasks a socket can serve
  /// at full speed; beyond this, they share bandwidth proportionally.
  int bw_streams_per_socket = 4;
};

/// Ready-queue discipline of the simulated list scheduler. Priority (the
/// default) mirrors the engine: among ready tasks the highest
/// TaskNode::priority launches first, FIFO within equal priority -- on a
/// graph with all-zero priorities it is bit-for-bit identical to Fifo.
/// Fifo ignores priorities (the pre-seam engine), kept for what-if
/// comparisons of the scheduling policy itself.
enum class SimPolicy {
  Fifo,
  Priority,
};

struct SimulationResult {
  double makespan = 0.0;
  double total_work = 0.0;      ///< sum of task durations (1-thread makespan)
  double critical_path = 0.0;   ///< lower bound on any schedule
  double efficiency = 0.0;      ///< total_work / (makespan * workers)
  /// The simulated schedule as a renderable trace (virtual worker ids and
  /// simulated clock), used to reproduce the paper's execution-trace
  /// figures for a 16-core machine from a 1-core measurement.
  Trace schedule;
};

}  // namespace dnc::rt
