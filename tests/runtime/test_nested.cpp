// Nested task spawning (Scheduler::spawn_and_wait): correctness of the
// help-first join at any thread count, trace attribution of child events
// under their parent, and the analysis contract that child slices are
// skipped so nested traces replay bit-for-bit like their flat equivalents.
// The whole file runs under the ThreadSanitizer CI job (runtime label).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/analysis.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace dnc::rt {
namespace {

double child_work(int parent, long child) {
  double acc = 0.0;
  for (int i = 0; i < 50; ++i) acc += std::sin(parent * 31 + child * 7 + i);
  return acc;
}

/// What the nested run must reproduce exactly.
std::vector<double> reference(int parents, long children) {
  std::vector<double> out(static_cast<std::size_t>(parents) * children);
  for (int p = 0; p < parents; ++p)
    for (long c = 0; c < children; ++c)
      out[static_cast<std::size_t>(p) * children + c] = child_work(p, c);
  return out;
}

TEST(NestedSpawn, StressMatchesSequentialReference) {
  constexpr int kParents = 16;
  constexpr long kChildren = 24;
  const std::vector<double> want = reference(kParents, kChildren);
  for (int threads : {1, 2, 4}) {
    std::vector<double> out(want.size(), 0.0);
    TaskGraph g;
    const KindId kind = g.register_kind("Work");
    Runtime rt(g, threads);
    Handle h;
    for (int p = 0; p < kParents; ++p) {
      g.submit(kind,
               [&, p] {
                 spawn_and_wait("panel", kChildren, [&, p](long c) {
                   out[static_cast<std::size_t>(p) * kChildren + c] = child_work(p, c);
                 });
               },
               {{&h, Access::GatherV}});
    }
    rt.wait_all();
    EXPECT_EQ(out, want) << threads << " threads";
  }
}

TEST(NestedSpawn, TwoLevelNesting) {
  // A child may itself spawn grandchildren: the join counters live on
  // separate stack frames, and the helping loop must drain both levels.
  constexpr long kMid = 6, kLeaf = 8;
  std::vector<std::atomic<int>> hits(kMid * kLeaf);
  for (auto& h : hits) h.store(0);
  TaskGraph g;
  const KindId kind = g.register_kind("Outer");
  Runtime rt(g, 4);
  Handle h;
  g.submit(kind,
           [&] {
             spawn_and_wait("mid", kMid, [&](long m) {
               spawn_and_wait("leaf", kLeaf, [&, m](long l) {
                 hits[static_cast<std::size_t>(m) * kLeaf + l].fetch_add(1);
               });
             });
           },
           {{&h, Access::InOut}});
  rt.wait_all();
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(NestedSpawn, SequentialFallbackOffRuntime) {
  ASSERT_EQ(Scheduler::current(), nullptr);
  std::vector<long> order;
  spawn_and_wait("x", 5, [&](long i) { order.push_back(i); });
  const std::vector<long> want{0, 1, 2, 3, 4};
  EXPECT_EQ(order, want);
}

TEST(NestedSpawn, ChildEventsNestUnderParentWithSuffixedKind) {
  constexpr long kChildren = 8;
  TaskGraph g;
  const KindId kind = g.register_kind("UpdateVect");
  Runtime rt(g, 2);
  Handle h;
  TaskNode* parent = g.submit(
      kind, [&] { spawn_and_wait("panel", kChildren, [&](long) { (void)child_work(1, 2); }); },
      {{&h, Access::InOut}});
  const std::uint64_t parent_id = parent->id;
  rt.wait_all();
  const Trace t = rt.trace();

  int children = 0;
  const TraceEvent* parent_ev = nullptr;
  for (const TraceEvent& e : t.events) {
    if (e.is_child()) {
      ++children;
      EXPECT_EQ(static_cast<std::uint64_t>(e.parent), parent_id);
      ASSERT_LT(static_cast<std::size_t>(e.kind), t.kind_names.size());
      EXPECT_EQ(t.kind_names[static_cast<std::size_t>(e.kind)], "UpdateVect/panel");
    } else if (e.task_id == parent_id) {
      parent_ev = &e;
    }
  }
  EXPECT_EQ(children, kChildren);
  ASSERT_NE(parent_ev, nullptr);
  // The parent's duration is inclusive of helped children; nested records
  // how much of it was child execution, and self_duration removes it.
  EXPECT_GT(parent_ev->nested, 0.0);
  EXPECT_GE(parent_ev->t_end - parent_ev->t_start, parent_ev->nested);
  EXPECT_GE(parent_ev->self_duration(), 0.0);
}

TEST(NestedReplay, BitForBitEqualToChildStrippedTrace) {
  // Analyses treat the parent duration as inclusive and skip child slices,
  // so a nested trace must replay exactly like the same trace with the
  // child events removed.
  TaskGraph g;
  const KindId kind = g.register_kind("Work");
  Runtime rt(g, 4);
  Handle chainh;
  std::vector<Handle> hs(6);
  for (int i = 0; i < 6; ++i) {
    g.submit(kind,
             [&, i] {
               spawn_and_wait("panel", 4, [&](long c) { (void)child_work(i, c); });
             },
             {{&chainh, Access::GatherV}, {&hs[static_cast<std::size_t>(i)], Access::InOut}});
  }
  g.submit(kind, [] {}, {{&chainh, Access::InOut}});
  rt.wait_all();
  const Trace full = rt.trace();

  Trace stripped = full;
  stripped.events.clear();
  for (const TraceEvent& e : full.events)
    if (!e.is_child()) stripped.events.push_back(e);
  ASSERT_LT(stripped.events.size(), full.events.size());

  for (int workers : {1, 2, 4}) {
    const SimulationResult a = obs::replay_trace(full, workers);
    const SimulationResult b = obs::replay_trace(stripped, workers);
    EXPECT_EQ(a.makespan, b.makespan) << workers << " workers";
    EXPECT_EQ(a.total_work, b.total_work) << workers << " workers";
    EXPECT_EQ(a.critical_path, b.critical_path) << workers << " workers";
  }
}

}  // namespace
}  // namespace dnc::rt
