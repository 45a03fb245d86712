#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::rt {
namespace {

TEST(Runtime, ExecutesAllTasks) {
  TaskGraph g;
  std::atomic<int> count{0};
  Runtime rt(g, 4);
  Handle h;
  for (int i = 0; i < 100; ++i)
    g.submit(0, [&] { count.fetch_add(1); }, {{&h, Access::GatherV}});
  rt.wait_all();
  EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, RespectsChainOrder) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    g.submit(0,
             [&, i] {
               std::lock_guard<std::mutex> lk(mu);
               order.push_back(i);
             },
             {{&h, Access::InOut}});
  }
  rt.wait_all();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Runtime, ForkJoinPattern) {
  // writer -> N gatherv -> join: join must observe all gatherv effects.
  TaskGraph g;
  Runtime rt(g, 8);
  Handle h;
  std::vector<int> cells(64, 0);
  g.submit(0, [&] { std::fill(cells.begin(), cells.end(), 1); }, {{&h, Access::Out}});
  for (int i = 0; i < 64; ++i)
    g.submit(0, [&, i] { cells[i] *= 2; }, {{&h, Access::GatherV}});
  int sum = -1;
  g.submit(0,
           [&] {
             sum = 0;
             for (int c : cells) sum += c;
           },
           {{&h, Access::InOut}});
  rt.wait_all();
  EXPECT_EQ(sum, 128);
}

TEST(Runtime, DiamondDependency) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle a, b, c;
  std::atomic<int> stage{0};
  g.submit(0, [&] { stage = 1; }, {{&a, Access::Out}});
  std::atomic<bool> left_ok{false}, right_ok{false};
  g.submit(0, [&] { left_ok = (stage >= 1); }, {{&a, Access::In}, {&b, Access::Out}});
  g.submit(0, [&] { right_ok = (stage >= 1); }, {{&a, Access::In}, {&c, Access::Out}});
  std::atomic<bool> join_ok{false};
  g.submit(0, [&] { join_ok = left_ok && right_ok; }, {{&b, Access::In}, {&c, Access::In}});
  rt.wait_all();
  EXPECT_TRUE(join_ok.load());
}

TEST(Runtime, WaitAllReusable) {
  TaskGraph g;
  Runtime rt(g, 2);
  Handle h;
  std::atomic<int> count{0};
  g.submit(0, [&] { count.fetch_add(1); }, {{&h, Access::InOut}});
  rt.wait_all();
  EXPECT_EQ(count.load(), 1);
  g.submit(0, [&] { count.fetch_add(1); }, {{&h, Access::InOut}});
  rt.wait_all();
  EXPECT_EQ(count.load(), 2);
}

// A throwing task body cancels the graph: the tasks after it are skipped but
// still released, so wait_all() returns and rethrows the first exception.
// The runtime is then usable again.
TEST(Runtime, ThrowingChainTaskSkipsDownstreamAndRethrows) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  std::atomic<int> ran{0};
  std::atomic<bool> downstream_ran{false};
  g.submit(0, [&] { ran.fetch_add(1); }, {{&h, Access::InOut}});
  g.submit(0, [&] { throw NumericalError("chain task failed", 7); }, {{&h, Access::InOut}});
  for (int i = 0; i < 5; ++i)
    g.submit(0, [&] { downstream_ran = true; }, {{&h, Access::InOut}});
  EXPECT_THROW(rt.wait_all(), NumericalError);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(downstream_ran.load());

  g.submit(0, [&] { ran.fetch_add(1); }, {{&h, Access::InOut}});
  rt.wait_all();
  EXPECT_EQ(ran.load(), 2);
}

// A throwing spawn_and_wait child: the join still completes, the spawning
// body stops at spawn_and_wait (which rethrows), its successor never runs,
// and wait_all() rethrows the child's exception.
TEST(Runtime, ThrowingSpawnedChildRethrowsFromWaitAll) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  std::atomic<int> children{0};
  std::atomic<bool> parent_resumed{false}, downstream_ran{false};
  g.submit(0,
           [&] {
             spawn_and_wait("child", 16, [&](long i) {
               if (i == 3) throw NumericalError("child failed", 3);
               children.fetch_add(1);
             });
             parent_resumed = true;
           },
           {{&h, Access::InOut}});
  g.submit(0, [&] { downstream_ran = true; }, {{&h, Access::In}});
  EXPECT_THROW(rt.wait_all(), NumericalError);
  EXPECT_LE(children.load(), 15);
  EXPECT_FALSE(parent_resumed.load());
  EXPECT_FALSE(downstream_ran.load());
}

TEST(Runtime, RuntimeInsideTaskBodyPlacesLikeOutsideSubmitter) {
  // A task body that builds its own one-worker runtime submits from a
  // worker of the outer scheduler; the inner one must treat that as an
  // outside submission (round-robin placement), not as a push by its own
  // worker with the outer worker's id.
  TaskGraph g;
  Runtime outer(g, 4);
  Handle h;
  constexpr int kOuter = 16, kInner = 5;
  std::atomic<int> ran{0}, placed{0};
  for (int i = 0; i < kOuter; ++i)
    g.submit(0,
             [&] {
               TaskGraph inner_graph;
               Runtime inner(inner_graph, 1);
               Handle ih;
               for (int k = 0; k < kInner; ++k)
                 inner_graph.submit(0, [&] { ran.fetch_add(1); }, {{&ih, Access::GatherV}});
               inner.wait_all();
               for (const auto& c : inner.trace().sched_counters) placed.fetch_add(c.placed);
             },
             {{&h, Access::GatherV}});
  outer.wait_all();
  EXPECT_EQ(ran.load(), kOuter * kInner);
  EXPECT_EQ(placed.load(), kOuter * kInner);
}

TEST(Runtime, EmptyGraphWaitReturns) {
  TaskGraph g;
  Runtime rt(g, 3);
  rt.wait_all();  // must not hang
  SUCCEED();
}

TEST(Runtime, RandomDagMatchesSequentialSemantics) {
  // Random DAGs over K handles: executing with many threads must produce
  // the same per-handle value as sequential interpretation of the
  // submission order (determinism of the task-flow model).
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr int kHandles = 6;
    TaskGraph g;
    std::vector<Handle> handles(kHandles);
    // Each handle value is a sequence of "writes"; readers hash them.
    struct Cell {
      std::mutex mu;
      long value = 0;
    };
    std::vector<Cell> cells(kHandles);
    std::vector<long> expected(kHandles, 0);

    Runtime rt(g, 4);
    const int ntasks = 60;
    for (int t = 0; t < ntasks; ++t) {
      const int hidx = static_cast<int>(rng.uniform_below(kHandles));
      const int op = static_cast<int>(rng.uniform_below(3));
      const long operand = static_cast<long>(rng.uniform_below(100));
      if (op == 0) {
        // overwrite
        expected[hidx] = operand;
        g.submit(0,
                 [&cells, hidx, operand] {
                   std::lock_guard<std::mutex> lk(cells[hidx].mu);
                   cells[hidx].value = operand;
                 },
                 {{&handles[hidx], Access::Out}});
      } else {
        // accumulate (InOut) -- order matters for the mix below
        expected[hidx] = expected[hidx] * 3 + operand;
        g.submit(0,
                 [&cells, hidx, operand] {
                   std::lock_guard<std::mutex> lk(cells[hidx].mu);
                   cells[hidx].value = cells[hidx].value * 3 + operand;
                 },
                 {{&handles[hidx], Access::InOut}});
      }
    }
    rt.wait_all();
    for (int h = 0; h < kHandles; ++h) EXPECT_EQ(cells[h].value, expected[h]) << "trial " << trial;
  }
}

TEST(Runtime, GatherVCommutativeSum) {
  // GatherV members may run in any order; a commutative reduction must be
  // exact regardless.
  TaskGraph g;
  Runtime rt(g, 8);
  Handle h;
  std::atomic<long> acc{0};
  g.submit(0, [&] { acc = 1000; }, {{&h, Access::Out}});
  for (int i = 1; i <= 100; ++i)
    g.submit(0, [&, i] { acc.fetch_add(i); }, {{&h, Access::GatherV}});
  long result = 0;
  g.submit(0, [&] { result = acc.load(); }, {{&h, Access::In}});
  rt.wait_all();
  EXPECT_EQ(result, 1000 + 5050);
}

TEST(Runtime, TraceRecordsEverything) {
  TaskGraph g;
  const KindId k = g.register_kind("work");
  Runtime rt(g, 2);
  Handle h;
  for (int i = 0; i < 10; ++i)
    g.submit(k, [] {}, {{&h, Access::GatherV}});
  rt.wait_all();
  const Trace tr = rt.trace();
  EXPECT_EQ(tr.events.size(), 10u);
  for (const auto& e : tr.events) {
    EXPECT_GE(e.worker, 0);
    EXPECT_LE(e.t_start, e.t_end);
  }
  EXPECT_GE(tr.makespan(), 0.0);
}

}  // namespace
}  // namespace dnc::rt
