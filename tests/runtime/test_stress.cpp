// Randomized-DAG stress test of the scheduler.
//
// The task-flow model promises sequential consistency with submission
// order: whatever interleaving the scheduler picks, every handle must end
// with the value a sequential interpretation produces, and every reader
// must observe exactly the value it would have seen in that
// interpretation. This file fuzzes DAGs mixing all four access modes
// (In / Out / InOut / GatherV), executes each one at several thread
// counts, and compares the full observation log against a plain in-order
// interpreter of the same program (no runtime involved).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "runtime/engine.hpp"

namespace dnc::rt {
namespace {

// One submitted task, replayable against any scheduler configuration.
struct Op {
  int handle = 0;
  Access mode = Access::In;
  long operand = 0;
};

// Generates a random program over `nhandles` handles. GatherV operations
// are commutative (atomic add) so any member order yields the same value;
// Out overwrites; InOut is deliberately non-commutative so ordering bugs
// show up as value mismatches, not just races.
std::vector<Op> random_program(Rng& rng, int ntasks, int nhandles) {
  std::vector<Op> prog(ntasks);
  for (Op& op : prog) {
    op.handle = static_cast<int>(rng.uniform_below(nhandles));
    switch (rng.uniform_below(4)) {
      case 0: op.mode = Access::In; break;
      case 1: op.mode = Access::Out; break;
      case 2: op.mode = Access::InOut; break;
      default: op.mode = Access::GatherV; break;
    }
    op.operand = static_cast<long>(rng.uniform_below(100));
  }
  return prog;
}

struct RunResult {
  std::vector<long> final_values;  // per handle
  std::vector<long> observed;     // per task; readers record, others -1
};

/// The reference: the ops applied one after another in submission order.
RunResult interpret(const std::vector<Op>& prog, int nhandles) {
  RunResult r;
  r.final_values.assign(nhandles, 0);
  r.observed.assign(prog.size(), -1);
  for (std::size_t t = 0; t < prog.size(); ++t) {
    long& cell = r.final_values[prog[t].handle];
    const long x = prog[t].operand;
    switch (prog[t].mode) {
      case Access::In: r.observed[t] = cell; break;
      case Access::Out: cell = x; break;
      case Access::InOut: cell = cell * 3 + x; break;
      case Access::GatherV: cell += x; break;
    }
  }
  return r;
}

RunResult run_program(const std::vector<Op>& prog, int nhandles, int threads) {
  TaskGraph g;
  std::vector<Handle> handles(nhandles);
  std::vector<std::atomic<long>> cells(nhandles);
  for (auto& c : cells) c.store(0);
  RunResult r;
  r.observed.assign(prog.size(), -1);

  Runtime rt(g, threads);
  for (std::size_t t = 0; t < prog.size(); ++t) {
    const Op& op = prog[t];
    std::atomic<long>& cell = cells[op.handle];
    const long x = op.operand;
    switch (op.mode) {
      case Access::In:
        g.submit(0, [&r, &cell, t] { r.observed[t] = cell.load(); },
                 {{&handles[op.handle], Access::In}});
        break;
      case Access::Out:
        g.submit(0, [&cell, x] { cell.store(x); }, {{&handles[op.handle], Access::Out}});
        break;
      case Access::InOut:
        g.submit(0, [&cell, x] { cell.store(cell.load() * 3 + x); },
                 {{&handles[op.handle], Access::InOut}});
        break;
      case Access::GatherV:
        g.submit(0, [&cell, x] { cell.fetch_add(x); },
                 {{&handles[op.handle], Access::GatherV}});
        break;
    }
  }
  rt.wait_all();
  for (auto& c : cells) r.final_values.push_back(c.load());
  return r;
}

TEST(SchedStress, AllPoliciesMatchSequentialReference) {
  Rng rng(90210);
  for (int trial = 0; trial < 8; ++trial) {
    constexpr int kHandles = 10;
    const std::vector<Op> prog = random_program(rng, 400, kHandles);
    const RunResult ref = interpret(prog, kHandles);
    for (const int threads : {1, 2, 4}) {
      const RunResult got = run_program(prog, kHandles, threads);
      EXPECT_EQ(got.final_values, ref.final_values) << "trial " << trial << " threads " << threads;
      EXPECT_EQ(got.observed, ref.observed) << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(SchedStress, StealPolicyWideFanOut) {
  // Many independent tasks from a single submitter: round-robin placement
  // spreads them over all deques, and every one must run exactly once.
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  std::atomic<long> count{0};
  for (int i = 0; i < 20000; ++i)
    g.submit(0, [&count] { count.fetch_add(1); }, {{&h, Access::GatherV}});
  rt.wait_all();
  EXPECT_EQ(count.load(), 20000);
  const Trace tr = rt.trace();
  long executed = 0;
  for (const auto& c : tr.sched_counters) executed += c.executed;
  EXPECT_EQ(executed, 20000);
}

TEST(SchedStress, StealPolicyDeepChainReusableWaitAll) {
  // A serial chain is the worst case for stealing (nothing to steal) and
  // exercises the sleep/wake path: each completion readies exactly one
  // task, possibly on a different worker's deque.
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  long value = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i)
      g.submit(0, [&value] { ++value; }, {{&h, Access::InOut}});
    rt.wait_all();  // quiescence must hold between rounds
    EXPECT_EQ(value, 5000 * (round + 1));
  }
}

}  // namespace
}  // namespace dnc::rt
