// The work-stealing scheduler behind rt::Runtime.
//
// A Scheduler owns the worker threads and the ready-task storage for one
// TaskGraph: the run/complete/release cycle, quiescence tracking for
// wait_all(), idle accounting, per-worker counters, decimated queue-depth
// sampling, trace assembly, and where ready tasks live:
//
// Placement: a worker releasing successors pushes them onto its own deque
// (locality -- the data the successor reads is warm in that worker's
// cache); pushes from the submitting thread (or from a worker of another
// scheduler) are spread round-robin across the deques. A deque holds at most kDequeCap tasks; beyond that pushes
// spill to a shared overflow queue so the bound holds without dropping
// work.
//
// Acquisition: own deque newest-first (LIFO keeps a worker on the subtree
// it just expanded), then the overflow queue, then a steal cycle over the
// other deques oldest-first (FIFO steals take the victim's coldest, most
// independent work). Priority dominates recency everywhere: every pop
// takes from the highest non-empty priority bucket.
//
// Victim order: worker w's steal cycle visits (w + k) % n for k = 1..n-1,
// a ring rotated by the thief's id so concurrent thieves don't convoy on
// one victim. The runtime does not pin its threads, so no victim is
// nearer than another in any sense the scheduler could know.
//
// Idle path: after a failed full scan a worker backs off with
// exponentially growing yield bursts, then parks on a condition variable.
// The sleep handshake is the flag-and-check protocol over one counter,
// `ready_` (ready tasks not yet taken, which is also what the queue-depth
// series samples): a producer bumps ready_ (seq_cst), stores the task,
// then reads sleepers_; a consumer bumps sleepers_ (seq_cst), then
// re-reads ready_ in the cv predicate under sleep_mu_. The seq_cst total
// order guarantees at least one side sees the other -- either the producer
// observes the sleeper and notifies (under sleep_mu_, so the notify cannot
// fall between predicate check and wait), or the consumer observes the
// count and rescans. Because ready_ rises before the store, that rescan can
// briefly miss a task still being stored; it then sees ready_ > 0 and scans
// again instead of sleeping.
//
// Stop: stop_ is only honored after a failed full scan with ready_ == 0,
// so destruction drains whatever was submitted.
//
// Quiescence argument: `inflight_` counts ready + running tasks and is
// incremented *before* a task becomes visible to any worker and
// decremented only *after* its newly-ready successors have been enqueued
// (each incrementing inflight_ first). Hence inflight_ can only reach zero
// when no task is queued, running, or about to be queued by a running
// task, and the decrement-to-zero side notifies cv_idle_ while holding the
// waiter's mutex -- wait_all() cannot miss the wakeup.
//
// Failure: run_task catches whatever a task body throws, keeps the first
// exception and cancels the graph. Later bodies are skipped, but every task
// still completes -- successors are released and spawn_and_wait joins
// counted down -- so inflight_ drains as above and wait_all() can rethrow.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/graph.hpp"
#include "runtime/trace.hpp"

namespace dnc::rt {

/// Per-worker execution context (hwc sampler, the stack of nested task
/// frames). Defined in scheduler.cpp -- it embeds obs types the header must
/// not pull in.
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

/// The work-stealing scheduler; see file comment. Owns its workers from
/// construction to destruction.
class Scheduler {
 public:
  /// Spawns `threads` workers and wires graph.on_ready to them.
  Scheduler(TaskGraph& graph, int threads);
  /// Drains what was submitted and joins the workers.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Blocks until every submitted task has executed; reusable. Rethrows
  /// the first exception a task body threw since the previous wait_all()
  /// (the tasks after it were skipped) and clears it.
  void wait_all();

  int threads() const { return thread_count_; }

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
  /// waiting worker keeps draining its deque / stealing (scan), so
  /// the core is never parked while children run elsewhere. Child trace
  /// events carry the parent's id and a kind named "<ParentKind>/<suffix>"
  /// (registered on first use, inheriting the parent's memory-bound flag)
  /// so obs and Perfetto attribute nested work to its spawner.
  ///
  /// Called from a non-worker thread (or a worker of another scheduler),
  /// the bodies run inline sequentially -- library code stays correct
  /// without a runtime. `body` must be safe to invoke concurrently from
  /// multiple workers with distinct indices. When the graph was cancelled
  /// (a child or any other task threw), rethrows the first exception after
  /// the join, so the spawning body stops too.
  void spawn_and_wait(const char* suffix, long count, const std::function<void(long)>& body,
                      int priority = kChildPriority);

 private:
  /// One worker's ready storage; cache-line aligned so neighbouring
  /// workers' locks do not false-share.
  struct alignas(64) WorkerQueue {
    std::mutex mu;
    PrioDeque q;
  };

  /// Per-worker counters; relaxed atomics because idle thieves bump
  /// steal_attempts concurrently with trace() reads.
  struct AtomicWorkerCounters {
    std::atomic<long> executed{0};
    std::atomic<long> local_pops{0};
    std::atomic<long> steals{0};
    std::atomic<long> steal_attempts{0};
    std::atomic<long> failed_steals{0};
    std::atomic<long> placed{0};
  };

  void worker_loop(int worker_id);
  /// Executes one task on this worker: timestamps, hwc deltas, the body unless the graph is cancelled (a throw is kept
  /// by fail()), completion (graph successors or child join decrement),
  /// idle accounting and inflight_ bookkeeping. Re-entrant -- the help-first wait inside
  /// spawn_and_wait calls it with the parent task's frame still open, and
  /// the frame stack in WorkerCtx keeps self-time/self-hwc accounting
  /// correct across arbitrary nesting depth.
  void run_task(TaskNode* node, WorkerCtx& ctx);
  /// Stamps t_ready, raises inflight_ and ready_, then stores the task:
  /// on `worker`'s own deque, or round-robin when `worker` is -1 (the
  /// submitting thread). Wakes a sleeper if there is one.
  void enqueue(TaskNode* node, int worker);
  /// One full non-blocking pass: own deque newest-first, overflow, steal
  /// cycle. The help-first wait in spawn_and_wait calls it directly; bumps
  /// failed_steals on a fruitless full scan.
  TaskNode* scan(int worker);
  /// Blocks until a task is available (returns it) or stop was requested
  /// and nothing is left to drain (returns nullptr).
  TaskNode* acquire(int worker);
  /// Bookkeeping when a task leaves ready storage: decrements ready_ and
  /// samples the queue depth.
  TaskNode* take(TaskNode* node);
  void sample_depth();
  /// Records one successful steal into the cumulative steal series.
  void record_steal();
  /// Keeps `e` if it is the first failure and cancels the graph.
  void fail(std::exception_ptr e);
  /// Requests stop, wakes every sleeper and joins the workers; they drain
  /// the queues first.
  void stop_and_join();

  /// Registers (or reuses) the child kind "<parent-kind-name>/<suffix>".
  /// Child kind ids extend the graph's kind table, so the graph must not
  /// register further kinds once the first child kind exists (drivers
  /// register all kinds up front; enforced with DNC_REQUIRE).
  KindId child_kind(KindId parent_kind, const char* suffix);

  TaskGraph& graph_;
  int thread_count_;
  std::atomic<long> inflight_{0};  // ready + running tasks
  /// Ready-but-not-taken tasks across all storage: the sleep predicate and
  /// the queue-depth series (see file comment).
  std::atomic<long> ready_{0};
  /// Set by the first failing body; run_task skips bodies while it holds.
  std::atomic<bool> cancelled_{false};
  std::exception_ptr error_;  // first failure, guarded by idle_mu_
  std::mutex idle_mu_;
  std::condition_variable cv_idle_;
  std::vector<std::thread> workers_;

  // --- ready storage ---
  std::unique_ptr<WorkerQueue[]> queues_;
  std::atomic<unsigned> rr_{0};  // submitter-side round-robin cursor
  std::mutex overflow_mu_;
  PrioDeque overflow_;  // spill for deques at kDequeCap
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mu_;
  std::condition_variable cv_sleep_;
  std::unique_ptr<AtomicWorkerCounters[]> counters_;

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

/// Worker id, in [0, threads()), of the calling thread within its
/// Scheduler::current(); -1 on a thread that is no scheduler's worker.
/// Library code indexes per-worker scratch with it (dc's S-panel slots).
int current_worker();

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
