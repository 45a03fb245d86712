// Scheduler architecture behind rt::Runtime.
//
// A Scheduler owns the worker threads and the ready-task storage for one
// TaskGraph. The base class implements everything policy-independent --
// the run/complete/release cycle, quiescence tracking for wait_all(), idle
// accounting, per-worker counters, decimated queue-depth sampling, and
// trace assembly -- while the two concrete policies (sched_central.cpp,
// sched_steal.cpp) only decide where ready tasks are stored and how a
// worker acquires its next one:
//
//   CentralScheduler  one mutex + condition variable around a single
//                     PrioDeque (the original engine, with priorities);
//   StealScheduler    one bounded PrioDeque per worker (mutex each), a
//                     global overflow queue, round-robin placement for
//                     submitter-side pushes, own-deque placement for
//                     worker-side pushes, LIFO owner pop / FIFO steal, and
//                     an exponential-backoff + sleep idle path.
//
// Quiescence argument (both policies): `inflight_` counts ready + running
// tasks and is incremented *before* a task becomes visible to any worker
// and decremented only *after* its newly-ready successors have been
// enqueued (each incrementing inflight_ first). Hence inflight_ can only
// reach zero when no task is queued, running, or about to be queued by a
// running task, and the decrement-to-zero side notifies cv_idle_ while
// holding the waiter's mutex -- wait_all() cannot miss the wakeup.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/graph.hpp"
#include "runtime/sched.hpp"
#include "runtime/trace.hpp"

namespace dnc::rt {

/// Per-worker execution context (hwc sampler, profiler registration, the
/// stack of nested task frames). Defined in scheduler.cpp -- it embeds obs
/// types the header must not pull in.
struct WorkerCtx;

/// Priority-bucketed task queue: 64 FIFO buckets plus an occupancy bitmask
/// so the highest non-empty priority is found in O(1). Priorities outside
/// [0, 63] are clamped. Not thread-safe; callers hold their own mutex
/// (mutex-per-deque is the design point -- no lock-free heroics).
class PrioDeque {
 public:
  static constexpr int kBuckets = 64;

  void push(TaskNode* node);
  /// Highest priority, newest within it (owner-side LIFO pop).
  TaskNode* pop_newest();
  /// Highest priority, oldest within it (FIFO drain / thief-side steal).
  TaskNode* pop_oldest();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  std::array<std::deque<TaskNode*>, kBuckets> buckets_;
  std::uint64_t mask_ = 0;  // bit p set <=> buckets_[p] non-empty
  std::size_t size_ = 0;
};

/// Bounded, self-decimating time series. Keeps 1-in-stride samples; when
/// the buffer reaches `cap` it drops every other retained sample and
/// doubles the stride, so memory stays O(cap) for arbitrarily long runs
/// while the kept samples remain uniformly spread. An atomic tick
/// prefilter rejects off-stride samples without taking the mutex, so on
/// long runs the common case is lock-free.
class SampledSeries {
 public:
  explicit SampledSeries(std::size_t cap = 8192) : cap_(cap) {}

  void push(double t, int depth);
  std::vector<QueueSample> snapshot() const;
  /// Current decimation stride (1 until the first overflow).
  unsigned long long stride() const { return stride_.load(std::memory_order_relaxed); }

 private:
  std::size_t cap_;
  std::atomic<unsigned long long> tick_{0};
  std::atomic<unsigned long long> stride_{1};
  mutable std::mutex mu_;
  std::vector<QueueSample> data_;
};

/// Policy-independent scheduler core; see file comment. Concrete policies
/// implement the four storage hooks. Lifecycle contract for derived
/// classes: call start() at the end of the constructor and stop_workers()
/// at the start of the destructor (workers call the virtual hooks, so they
/// must be joined while the derived object is still alive).
class Scheduler {
 public:
  virtual ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates the scheduler for `policy` and wires graph.on_ready to it.
  static std::unique_ptr<Scheduler> make(SchedPolicy policy, TaskGraph& graph, int threads);

  /// Blocks until every submitted task has executed; reusable.
  void wait_all();

  int threads() const { return static_cast<int>(workers_.size()); }
  SchedPolicy policy() const { return policy_; }

  /// Builds the execution trace (valid after wait_all()).
  Trace trace() const;

  /// Scheduler whose worker is executing the current thread's task, or
  /// nullptr on non-worker threads. Lets library code (e.g. parallel_gemm)
  /// discover "am I inside the runtime?" without plumbing a handle through.
  static Scheduler* current();

  /// Priority child subtasks run at: above every graph-task priority
  /// (dc::detail::task_priority tops out at 61), so spawned children drain
  /// before unrelated graph work on every queue.
  static constexpr int kChildPriority = 63;

  /// Task-internal spawning with a help-first wait. Callable from inside a
  /// running task body on one of this scheduler's workers: submits `count`
  /// child subtasks running `body(0..count-1)` onto the worker's own queue
  /// and blocks until all have finished -- but "blocks" by working: the
  /// waiting worker keeps draining its deque / stealing (try_acquire), so
  /// the core is never parked while children run elsewhere. Child trace
  /// events carry the parent's id and a kind named "<ParentKind>/<suffix>"
  /// (registered on first use, inheriting the parent's memory-bound flag)
  /// so obs/Perfetto/profiler attribute nested work to its spawner.
  ///
  /// Called from a non-worker thread (or a worker of another scheduler),
  /// the bodies run inline sequentially -- library code stays correct
  /// without a runtime. `body` must be safe to invoke concurrently from
  /// multiple workers with distinct indices.
  void spawn_and_wait(const char* suffix, long count, const std::function<void(long)>& body,
                      int priority = kChildPriority);

 protected:
  Scheduler(TaskGraph& graph, int threads, SchedPolicy policy);

  /// Spawns the workers and hooks graph.on_ready. Call from derived ctor.
  void start();
  /// Requests stop, wakes everyone, joins. Call from derived dtor.
  void stop_workers();

  // --- policy hooks ---
  /// Stores a ready task. `worker` is the pushing worker id, or -1 when the
  /// push comes from the submitting thread.
  virtual void push_ready(TaskNode* node, int worker) = 0;
  /// Blocks until a task is available (returns it) or stop was requested
  /// and nothing is left to drain (returns nullptr). Implementations call
  /// took() after removing a task from storage.
  virtual TaskNode* acquire(int worker) = 0;
  /// Non-blocking acquire for the help-first wait loop: one full pass over
  /// the storage (own deque, overflow, steal cycle for the steal policy; a
  /// single locked pop for the central one). Returns nullptr when nothing
  /// was found; never sleeps. Implementations call took() on success.
  virtual TaskNode* try_acquire(int worker) = 0;
  /// Wakes every blocked worker (stop_ is already set). Must take the
  /// sleep mutex (empty critical section suffices) before notifying so a
  /// worker between predicate check and wait cannot miss it.
  virtual void wake_all() = 0;

  /// Bookkeeping when a task leaves ready storage: decrements the ready
  /// count and samples the queue depth.
  void took();

  // Shared state readable by policies.
  std::atomic<bool> stop_{false};
  /// Ready-but-not-taken tasks across all storage; the steal policy's
  /// sleep predicate ("is there anything to find?") and the depth series.
  std::atomic<long> ready_count_{0};

  /// Per-worker counters; relaxed atomics because idle thieves bump
  /// steal_attempts concurrently with trace() reads.
  struct AtomicWorkerCounters {
    std::atomic<long> executed{0};
    std::atomic<long> local_pops{0};
    std::atomic<long> steals{0};
    std::atomic<long> steal_attempts{0};
    std::atomic<long> failed_steals{0};
    std::atomic<long> placed{0};
    // Locality split of steals (steal policy only; see WorkerSchedCounters).
    std::atomic<long> steals_same_l3{0};
    std::atomic<long> steals_same_socket{0};
    std::atomic<long> steals_cross_socket{0};
  };
  std::unique_ptr<AtomicWorkerCounters[]> counters_;

  /// Records one successful steal into the cumulative steal series.
  void record_steal();

 private:
  void worker_loop(int worker_id);
  /// Executes one task on this worker: timestamps, hwc deltas, profiler
  /// attribution, completion (graph successors or child join decrement),
  /// idle accounting and inflight_ bookkeeping. Re-entrant -- the help-first wait inside
  /// spawn_and_wait calls it with the parent task's frame still open, and
  /// the frame stack in WorkerCtx keeps self-time/self-hwc accounting
  /// correct across arbitrary nesting depth.
  void run_task(TaskNode* node, WorkerCtx& ctx);
  /// Stamps t_ready, raises inflight_/ready_count_, stores via push_ready.
  void enqueue(TaskNode* node, int worker);
  void sample_depth();

  /// Registers (or reuses) the child kind "<parent-kind-name>/<suffix>".
  /// Child kind ids extend the graph's kind table, so the graph must not
  /// register further kinds once the first child kind exists (drivers
  /// register all kinds up front; enforced with DNC_REQUIRE).
  KindId child_kind(KindId parent_kind, const char* suffix);
  /// Interned profiler name for `kind`, extending the worker's cache
  /// lazily so child kinds registered mid-run resolve on every worker.
  const char* interned_kind(WorkerCtx& ctx, int kind);

  TaskGraph& graph_;
  SchedPolicy policy_;
  std::atomic<long> inflight_{0};  // ready + running tasks
  std::mutex idle_mu_;
  std::condition_variable cv_idle_;
  std::vector<std::thread> workers_;
  int thread_count_ = 0;

  // Written only by the owning worker, before its inflight_ release.
  std::vector<double> idle_;
  SampledSeries queue_series_;
  SampledSeries steal_series_;
  std::atomic<long> total_steals_{0};
  std::atomic<int> depth_peak_{0};
  /// Set by any worker whose obs::ThreadHwc sampled at least one task;
  /// trace() stamps the backend name onto the Trace when set.
  std::atomic<bool> hwc_active_{false};

  // --- nested-subtask state (spawn_and_wait) ---
  /// Guards child_nodes_ / child_kinds_ / child_kind_ids_: child tasks are
  /// created from inside running task bodies, i.e. from many workers at
  /// once, unlike graph submission which is single-threaded.
  mutable std::mutex child_mu_;
  /// Scheduler-owned child task nodes (the TaskGraph never sees them);
  /// kept alive until destruction so trace() can read them.
  std::vector<std::unique_ptr<TaskNode>> child_nodes_;
  /// Child kinds, appended after the graph's kinds in the combined table.
  std::vector<TaskKind> child_kinds_;
  /// Size of the graph kind table when the first child kind was made; the
  /// combined kind table is graph kinds [0, base) + child_kinds_ [base, ..).
  std::size_t child_kind_base_ = 0;
  std::map<std::pair<int, std::string>, KindId> child_kind_ids_;
  /// Child ids start far above any graph id (graph ids count up from 0) so
  /// trace consumers can rely on ids staying unique across both kinds.
  std::uint64_t next_child_id_ = std::uint64_t{1} << 62;
};

/// Policy factories (defined in sched_central.cpp / sched_steal.cpp);
/// normally reached through Scheduler::make.
std::unique_ptr<Scheduler> make_central_scheduler(TaskGraph& graph, int threads);
std::unique_ptr<Scheduler> make_steal_scheduler(TaskGraph& graph, int threads);

/// Free-function form of task-internal spawning for library code: fans
/// `body(0..count-1)` out as child subtasks of the currently-running task
/// when the calling thread is a runtime worker, and runs it as a plain
/// sequential loop otherwise. This is how blas::parallel_gemm parallelises
/// without owning threads -- the scheduler is the only thread source.
inline void spawn_and_wait(const char* suffix, long count,
                           const std::function<void(long)>& body) {
  Scheduler* s = Scheduler::current();
  if (s != nullptr) {
    s->spawn_and_wait(suffix, count, body);
  } else {
    for (long i = 0; i < count; ++i) body(i);
  }
}

}  // namespace dnc::rt
