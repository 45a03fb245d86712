// Priority semantics across the engine and the trace-driven replay.
//
// Priorities are hints, not barriers: a higher-priority ready task launches
// before a lower-priority one when a worker picks its next task, but an
// already-running task is never preempted. These tests pin down the places
// the priority must mean the same thing: the engine, the trace, and the
// replay simulator / critical-path analytics built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "obs/analysis.hpp"
#include "runtime/engine.hpp"
#include "runtime/simulator.hpp"

namespace dnc::rt {
namespace {

TEST(Priority, HigherPriorityRunsFirstOnSingleWorker) {
  // Gate a single worker on a blocker task, queue tasks with distinct
  // priorities while it is blocked, then release: the backlog must drain
  // highest-priority-first.
  TaskGraph g;
  Runtime rt(g, 1);
  Handle gate;
  std::atomic<bool> started{false}, release{false};
  g.submit(0,
           [&] {
             started = true;
             while (!release.load()) std::this_thread::yield();
           },
           {{&gate, Access::Out}});
  while (!started.load()) std::this_thread::yield();

  std::vector<int> order;
  std::mutex mu;
  std::vector<Handle> slots(4);
  const int prios[4] = {1, 7, 3, 5};
  for (int i = 0; i < 4; ++i) {
    g.submit(0,
             [&, i] {
               std::lock_guard<std::mutex> lk(mu);
               order.push_back(prios[i]);
             },
             {{&gate, Access::In}, {&slots[i], Access::Out}}, prios[i]);
  }
  release = true;
  rt.wait_all();
  const std::vector<int> want{7, 5, 3, 1};
  EXPECT_EQ(order, want);
}

TEST(Priority, TraceRecordsTaskPriority) {
  TaskGraph g;
  Runtime rt(g, 2);
  Handle h;
  g.submit(0, [] {}, {{&h, Access::Out}}, 9);
  g.submit(0, [] {}, {{&h, Access::In}}, 4);
  rt.wait_all();
  const Trace tr = rt.trace();
  ASSERT_EQ(tr.events.size(), 2u);
  EXPECT_EQ(tr.events[0].priority, 9);
  EXPECT_EQ(tr.events[1].priority, 4);
}

// Fork graph whose two branches become ready simultaneously: under the
// Priority policy the replay must launch the high-priority branch
// first; under Fifo, submission order wins.
TEST(Priority, SimulatorOrdersCriticalJoinFirst) {
  TaskGraph g;
  const KindId klow = g.register_kind("low");
  const KindId khigh = g.register_kind("high");
  Handle a, b;
  Runtime rt(g, 1);
  const auto spin = [] {
    const double t0 = now_seconds();
    while (now_seconds() - t0 < 1e-4) {
    }
  };
  g.submit(0, spin, {{&a, Access::Out}, {&b, Access::Out}});
  g.submit(klow, spin, {{&a, Access::In}}, 0);   // submitted first...
  g.submit(khigh, spin, {{&b, Access::In}}, 5);  // ...but outranked
  rt.wait_all();

  const auto start_of = [&](const SimulationResult& s, KindId k) {
    for (const auto& e : s.schedule.events)
      if (e.kind == k) return e.t_start;
    ADD_FAILURE() << "kind " << k << " not in schedule";
    return -1.0;
  };
  const Trace tr = rt.trace();
  const SimulationResult pri = obs::replay_trace(tr, 1, MachineModel{}, SimPolicy::Priority);
  EXPECT_LT(start_of(pri, khigh), start_of(pri, klow));
  const SimulationResult fifo = obs::replay_trace(tr, 1, MachineModel{}, SimPolicy::Fifo);
  EXPECT_LT(start_of(fifo, klow), start_of(fifo, khigh));
}

TEST(Priority, EngineSimulatorReplayAgreementBothPolicies) {
  // The engine's trace must carry the graph's dependency edges exactly
  // (Trace::edges == the nodes' pred_ids), the trace's critical path must
  // equal the longest path computed directly on the graph, and the replay
  // must respect the work/span lower bound under both ready-queue
  // disciplines.
  TaskGraph g;
  const KindId mem = g.register_kind("copy", true);
  Runtime rt(g, 2);
  std::vector<Handle> handles(6);
  Rng rng(22);
  for (int t = 0; t < 120; ++t) {
    std::vector<TaskDep> deps;
    const int na = 1 + static_cast<int>(rng.uniform_below(3));
    for (int a = 0; a < na; ++a)
      deps.push_back({&handles[rng.uniform_below(6)], static_cast<Access>(rng.uniform_below(4))});
    g.submit(rng.uniform_below(4) == 0 ? mem : 0,
             [] {
               const double t0 = now_seconds();
               while (now_seconds() - t0 < 2e-5) {
               }
             },
             deps, static_cast<int>(rng.uniform_below(8)));
  }
  rt.wait_all();
  const Trace tr = rt.trace();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (const auto& node : g.nodes())
    for (const std::uint64_t p : node->pred_ids) edges.emplace_back(p, node->id);
  EXPECT_EQ(tr.edges, edges);

  // Longest path over the graph (nodes are in topological order).
  std::vector<double> finish(g.task_count(), 0.0);
  double longest = 0.0;
  for (const auto& node : g.nodes()) {
    double start = 0.0;
    for (const std::uint64_t p : node->pred_ids) start = std::max(start, finish[p]);
    finish[node->id] = start + std::max(0.0, node->t_end - node->t_start);
    longest = std::max(longest, finish[node->id]);
  }
  const obs::CriticalPath cp = obs::critical_path(tr);
  EXPECT_NEAR(cp.length, longest, 1e-12);
  for (const int w : {1, 4, 16}) {
    for (const SimPolicy sp : {SimPolicy::Fifo, SimPolicy::Priority}) {
      const SimulationResult rep = obs::replay_trace(tr, w, MachineModel{}, sp);
      EXPECT_NEAR(rep.critical_path, longest, 1e-12) << "w=" << w;
      EXPECT_GE(rep.makespan + 1e-12, std::max(longest, rep.total_work / w)) << "w=" << w;
    }
  }
}

TEST(Priority, ZeroPrioritySimulationIsFifo) {
  // All-zero priorities must make Priority and Fifo bit-for-bit identical
  // (the backward-compatibility guarantee for pre-seam traces).
  TaskGraph g;
  Runtime rt(g, 2);
  std::vector<Handle> handles(4);
  Rng rng(5150);
  for (int t = 0; t < 80; ++t)
    g.submit(0,
             [] {
               const double t0 = now_seconds();
               while (now_seconds() - t0 < 1e-5) {
               }
             },
             {{&handles[rng.uniform_below(4)], static_cast<Access>(rng.uniform_below(4))}});
  rt.wait_all();
  const Trace tr = rt.trace();
  for (const int w : {2, 8}) {
    const SimulationResult a = obs::replay_trace(tr, w, MachineModel{}, SimPolicy::Priority);
    const SimulationResult b = obs::replay_trace(tr, w, MachineModel{}, SimPolicy::Fifo);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.schedule.events.size(), b.schedule.events.size());
    for (std::size_t i = 0; i < a.schedule.events.size(); ++i) {
      EXPECT_EQ(a.schedule.events[i].task_id, b.schedule.events[i].task_id);
      EXPECT_EQ(a.schedule.events[i].t_start, b.schedule.events[i].t_start);
    }
  }
}

}  // namespace
}  // namespace dnc::rt
