// Stress and fuzz tests of the task runtime: large random graphs executed
// with many workers must respect all declared dependencies, and the replay
// simulator must stay consistent with the structural bounds on every graph
// shape the fuzzer produces.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/analysis.hpp"
#include "runtime/engine.hpp"

namespace dnc::rt {
namespace {

TEST(RuntimeStress, ManyTasksManyHandles) {
  TaskGraph g;
  Runtime rt(g, 8);
  constexpr int kHandles = 32;
  std::vector<Handle> handles(kHandles);
  // Each handle guards a counter; IN tasks read it, INOUT tasks bump it.
  struct Cell {
    std::atomic<long> value{0};
  };
  std::vector<Cell> cells(kHandles);
  std::vector<long> expected(kHandles, 0);
  std::atomic<long> violations{0};

  Rng rng(31337);
  const int ntasks = 5000;
  for (int t = 0; t < ntasks; ++t) {
    const int h = static_cast<int>(rng.uniform_below(kHandles));
    if (rng.uniform_below(3) == 0) {
      // Reader: records the value it saw; since readers run between
      // writers, the value must equal the submission-time expectation.
      const long want = expected[h];
      g.submit(0,
               [&cells, &violations, h, want] {
                 if (cells[h].value.load() != want) violations.fetch_add(1);
               },
               {{&handles[h], Access::In}});
    } else {
      ++expected[h];
      g.submit(0, [&cells, h] { cells[h].value.fetch_add(1); },
               {{&handles[h], Access::InOut}});
    }
  }
  rt.wait_all();
  EXPECT_EQ(violations.load(), 0);
  for (int h = 0; h < kHandles; ++h) EXPECT_EQ(cells[h].value.load(), expected[h]);
}

TEST(RuntimeStress, DeepChain) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  long value = 0;
  for (int i = 0; i < 20000; ++i)
    g.submit(0, [&value] { ++value; }, {{&h, Access::InOut}});
  rt.wait_all();
  EXPECT_EQ(value, 20000);
}

TEST(RuntimeStress, WideGatherv) {
  TaskGraph g;
  Runtime rt(g, 8);
  Handle h;
  std::atomic<long> sum{0};
  for (int i = 0; i < 10000; ++i)
    g.submit(0, [&sum] { sum.fetch_add(1); }, {{&h, Access::GatherV}});
  long seen = -1;
  g.submit(0, [&] { seen = sum.load(); }, {{&h, Access::In}});
  rt.wait_all();
  EXPECT_EQ(seen, 10000);
}

TEST(RuntimeStress, FuzzedGraphSimulatorConsistency) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    TaskGraph g;
    const KindId mem = g.register_kind("copy", true);
    Runtime rt(g, 4);
    std::vector<Handle> handles(8);
    const int ntasks = 200;
    for (int t = 0; t < ntasks; ++t) {
      std::vector<TaskDep> deps;
      const int na = 1 + static_cast<int>(rng.uniform_below(3));
      for (int a = 0; a < na; ++a) {
        const Access mode = static_cast<Access>(rng.uniform_below(4));
        deps.push_back({&handles[rng.uniform_below(8)], mode});
      }
      const KindId kind = rng.uniform_below(4) == 0 ? mem : 0;
      g.submit(kind,
               [] {
                 const double t0 = now_seconds();
                 while (now_seconds() - t0 < 2e-5) {
                 }
               },
               deps);
    }
    rt.wait_all();
    const Trace tr = rt.trace();
    double prev = 1e300;
    for (int w : {1, 2, 4, 8, 16}) {
      const auto s = obs::replay_trace(tr, w);
      EXPECT_GE(s.makespan + 1e-12, s.critical_path);
      EXPECT_GE(s.makespan + 1e-12, s.total_work / w);
      EXPECT_LE(s.makespan, prev + 1e-12);  // monotone in workers
      prev = s.makespan;
      // Schedule events cover every task exactly once.
      EXPECT_EQ(s.schedule.events.size(), g.task_count());
    }
  }
}

TEST(RuntimeStress, SubmitFromCompletionCallbacksForbiddenPatternWorksViaLevels) {
  // The engine requires single-threaded submission; level-synchronous
  // submission (submit, wait, submit more) must work repeatedly.
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  long total = 0;
  for (int level = 0; level < 50; ++level) {
    for (int i = 0; i < 20; ++i)
      g.submit(0, [&total] { /* racy increments guarded by chain below */ },
               {{&h, Access::In}});
    g.submit(0, [&total] { total += 20; }, {{&h, Access::InOut}});
    rt.wait_all();
  }
  EXPECT_EQ(total, 1000);
}

}  // namespace
}  // namespace dnc::rt
