// Unit tests of the scheduler building blocks: the priority deque, the
// self-decimating sample series, and the per-worker counters surfaced
// through the trace.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::rt {
namespace {

std::vector<TaskNode> make_nodes(const std::vector<int>& prios) {
  std::vector<TaskNode> nodes(prios.size());
  for (std::size_t i = 0; i < prios.size(); ++i) {
    nodes[i].id = i;
    nodes[i].priority = prios[i];
  }
  return nodes;
}

TEST(PrioDeque, PopsHighestPriorityFirst) {
  auto nodes = make_nodes({0, 5, 3, 5, 63, 1});
  PrioDeque q;
  for (auto& n : nodes) q.push(&n);
  EXPECT_EQ(q.size(), 6u);
  std::vector<int> got;
  while (!q.empty()) got.push_back(q.pop_oldest()->priority);
  const std::vector<int> want{63, 5, 5, 3, 1, 0};
  EXPECT_EQ(got, want);
}

TEST(PrioDeque, FifoVsLifoWithinBucket) {
  auto nodes = make_nodes({2, 2, 2});
  {
    PrioDeque q;
    for (auto& n : nodes) q.push(&n);
    // Thief side: oldest first.
    EXPECT_EQ(q.pop_oldest()->id, 0u);
    EXPECT_EQ(q.pop_oldest()->id, 1u);
    EXPECT_EQ(q.pop_oldest()->id, 2u);
  }
  {
    PrioDeque q;
    for (auto& n : nodes) q.push(&n);
    // Owner side: newest first (cache-warm LIFO).
    EXPECT_EQ(q.pop_newest()->id, 2u);
    EXPECT_EQ(q.pop_newest()->id, 1u);
    EXPECT_EQ(q.pop_newest()->id, 0u);
  }
}

TEST(PrioDeque, ClampsOutOfRangePriorities) {
  auto nodes = make_nodes({-7, 200, 10});
  PrioDeque q;
  for (auto& n : nodes) q.push(&n);
  EXPECT_EQ(q.pop_oldest()->priority, 200);  // clamped into bucket 63: still first
  EXPECT_EQ(q.pop_oldest()->priority, 10);
  EXPECT_EQ(q.pop_oldest()->priority, -7);  // bucket 0: last
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop_oldest(), nullptr);
  EXPECT_EQ(q.pop_newest(), nullptr);
}

TEST(SampledSeries, KeepsEverySampleBelowCap) {
  SampledSeries s(64);
  for (int i = 0; i < 50; ++i) s.push(i * 1.0, i);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 50u);
  EXPECT_EQ(s.stride(), 1ull);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(snap[i].depth, i);
}

TEST(SampledSeries, DecimatesAtCapAndStaysBounded) {
  constexpr std::size_t kCap = 64;
  SampledSeries s(kCap);
  for (int i = 0; i < 100000; ++i) s.push(i * 1.0, i);
  const auto snap = s.snapshot();
  EXPECT_LE(snap.size(), kCap);
  EXPECT_GE(snap.size(), kCap / 4);  // decimation halves, never empties
  EXPECT_GT(s.stride(), 1ull);
  // Retained samples stay time-ordered and spread over the whole run.
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].t, snap[i].t);
  EXPECT_GT(snap.back().t, 50000.0);
}

TEST(SchedCounters, StealPolicyAccountsEveryTask) {
  TaskGraph g;
  Runtime rt(g, 4);
  Handle h;
  for (int i = 0; i < 2000; ++i)
    g.submit(0, [] {}, {{&h, Access::GatherV}});
  rt.wait_all();
  const Trace tr = rt.trace();
  ASSERT_EQ(tr.sched_counters.size(), 4u);
  long executed = 0, local = 0, steals = 0, attempts = 0, placed = 0;
  for (const auto& c : tr.sched_counters) {
    executed += c.executed;
    local += c.local_pops;
    steals += c.steals;
    attempts += c.steal_attempts;
    placed += c.placed;
  }
  EXPECT_EQ(executed, 2000);
  // Every execution came off a deque: the owner's (local pop), another
  // worker's (steal), or the bounded-capacity overflow queue.
  EXPECT_LE(local + steals, executed);
  EXPECT_GE(local + steals, 1);
  EXPECT_LE(steals, attempts);
  // Submitter-side round-robin placement covered all deques.
  EXPECT_EQ(placed, 2000);
  for (const auto& c : tr.sched_counters) EXPECT_GT(c.placed, 0);
}

TEST(SchedCounters, QueueDepthPeakIsExactDespiteDecimation) {
  // Submit a wide fan (all ready at once) against one slow worker: the
  // peak must reflect the true backlog even if sampling decimated.
  TaskGraph g;
  Runtime rt(g, 1);
  Handle gate;
  std::atomic<bool> release{false};
  g.submit(0, [&] { while (!release.load()) std::this_thread::yield(); },
           {{&gate, Access::Out}});
  for (int i = 0; i < 300; ++i)
    g.submit(0, [] {}, {{&gate, Access::GatherV}});
  release = true;
  rt.wait_all();
  const Trace tr = rt.trace();
  EXPECT_GE(tr.queue_depth_peak, 300);
}

}  // namespace
}  // namespace dnc::rt
