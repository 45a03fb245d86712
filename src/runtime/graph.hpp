// Task graph construction: sequential task-flow submission with automatic
// dependency inference from data-access qualifiers (the QUARK model the
// paper's solver is written against).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/access.hpp"

namespace dnc::rt {

/// Identity of a logical piece of data. The runtime never dereferences the
/// data itself -- a handle is pure identity, which is how the solver maps
/// "the eigenvector block of tree node v" or "panel p of the merge at node
/// v" onto dependency tracking without address-range analysis.
class Handle {
 public:
  explicit Handle(std::string label = {}) : label_(std::move(label)) {}
  const std::string& label() const { return label_; }

 private:
  std::string label_;
};

/// Task kinds drive trace colours and the simulator's memory-bound model.
struct TaskKind {
  std::string name;
  bool memory_bound = false;  ///< bandwidth-limited (Permute/CopyBack/Sort)
  std::string color = "#808080";
};

using KindId = int;

struct TaskNode {
  std::uint64_t id = 0;
  KindId kind = 0;
  /// Scheduling priority: higher runs first among ready tasks, FIFO within
  /// equal priority. Fixed at submission (a task can become ready inside
  /// submit(), so a post-submit setter would be a race). The scheduler and
  /// the simulator honor it.
  int priority = 0;
  std::function<void()> fn;
  // --- scheduling state ---
  std::atomic<long> unsatisfied{0};
  std::mutex mu;
  bool done = false;
  std::vector<TaskNode*> successors;
  // --- structure retained for DOT export and the simulator ---
  std::vector<std::uint64_t> pred_ids;
  // --- trace ---
  double t_start = 0.0;
  double t_end = 0.0;
  /// When the engine moved the task into the ready queue (trace clock).
  double t_ready = 0.0;
  int worker = -1;
  // --- observability annotations (optional; set by the submitter right
  // after submit(), surfaced as per-event args in trace exports) ---
  int obs_level = -1;   ///< merge-tree level of the owning node
  long obs_size = -1;   ///< block size of the owning (sub)problem
  long obs_panel = -1;  ///< panel index within the merge
  /// Hardware-counter deltas sampled around fn() by the executing worker
  /// (obs::ThreadHwc); all zero when DNC_HWC sampling is off. Written only
  /// by the executing worker, read by trace() after wait_all(). For a task
  /// that help-executed nested subtasks these are SELF deltas: the helped
  /// tasks' inclusive deltas are subtracted so per-kind aggregates add up.
  std::uint64_t hwc[4] = {0, 0, 0, 0};

  // --- nested subtask state (task-internal spawning) ---
  /// Non-null marks a child subtask spawned from inside a running task
  /// (Scheduler::spawn_and_wait). On completion the worker decrements this
  /// join counter instead of calling TaskGraph::complete(); the node is
  /// owned by the Scheduler, not the TaskGraph.
  std::atomic<long>* join = nullptr;
  /// Id of the spawning parent task (child subtasks only).
  std::uint64_t parent_id = 0;
  bool is_child = false;
  /// Seconds of directly-nested helped tasks executed inside this task's
  /// [t_start, t_end] window by the same worker (help-first waiting). The
  /// task's self time is (t_end - t_start) - t_nested.
  double t_nested = 0.0;

  TaskNode* annotate(int level, long size, long panel = -1) {
    obs_level = level;
    obs_size = size;
    obs_panel = panel;
    return this;
  }
};

struct TaskDep {
  const Handle* handle;
  Access mode;
};

/// Builds the DAG. Submission must happen from a single thread; execution
/// (by Runtime) may overlap with submission, exactly as in QUARK where the
/// master thread keeps submitting while workers drain ready tasks.
class TaskGraph {
 public:
  TaskGraph();
  ~TaskGraph();
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Registers a task kind (colour + memory-bound classification).
  KindId register_kind(const std::string& name, bool memory_bound = false,
                       const std::string& color = "#808080");

  /// Submits a task accessing the given handles. Returns the node, already
  /// wired to its predecessors; the caller (Runtime) is notified through
  /// the ready callback when the task may run. `priority` orders ready
  /// tasks (higher first) and must be passed here rather than set after the
  /// fact: a dependency-free task fires on_ready before submit() returns.
  TaskNode* submit(KindId kind, std::function<void()> fn, const std::vector<TaskDep>& deps,
                   int priority = 0);

  /// Called by the engine when a task finishes: marks it done and returns
  /// the successors that became ready.
  std::vector<TaskNode*> complete(TaskNode* node);

  /// Ready-callback invoked (from the submitting thread) whenever a task
  /// has no unsatisfied dependencies at submission time.
  std::function<void(TaskNode*)> on_ready;

  std::size_t task_count() const { return nodes_.size(); }
  const std::vector<std::unique_ptr<TaskNode>>& nodes() const { return nodes_; }
  const std::vector<TaskKind>& kinds() const { return kinds_; }
  const TaskKind& kind_of(const TaskNode& n) const { return kinds_[n.kind]; }

 private:
  struct HandleState {
    std::vector<TaskNode*> writers;      // last writer, or the open GatherV group
    bool writers_are_gatherv = false;
    std::vector<TaskNode*> readers;      // readers since the last writer group
    std::vector<TaskNode*> gather_base;  // common predecessors of the open group
  };

  std::vector<std::unique_ptr<TaskNode>> nodes_;
  std::vector<TaskKind> kinds_;
  std::unordered_map<const Handle*, HandleState> handles_;
  std::uint64_t next_id_ = 0;
};

}  // namespace dnc::rt
