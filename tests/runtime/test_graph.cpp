#include "runtime/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dnc::rt {
namespace {

// Helper: collect predecessor ids of a node.
std::vector<std::uint64_t> preds(const TaskNode* n) {
  auto p = n->pred_ids;
  std::sort(p.begin(), p.end());
  return p;
}

TEST(TaskGraph, NoDepsNoPreds) {
  TaskGraph g;
  Handle h("a");
  auto* t = g.submit(0, {}, {{&h, Access::In}});
  EXPECT_TRUE(preds(t).empty());
}

TEST(TaskGraph, ReadAfterWrite) {
  TaskGraph g;
  Handle h;
  auto* w = g.submit(0, {}, {{&h, Access::Out}});
  auto* r = g.submit(0, {}, {{&h, Access::In}});
  EXPECT_EQ(preds(r), std::vector<std::uint64_t>{w->id});
}

TEST(TaskGraph, WriteAfterRead) {
  TaskGraph g;
  Handle h;
  auto* w1 = g.submit(0, {}, {{&h, Access::Out}});
  auto* r1 = g.submit(0, {}, {{&h, Access::In}});
  auto* r2 = g.submit(0, {}, {{&h, Access::In}});
  auto* w2 = g.submit(0, {}, {{&h, Access::InOut}});
  auto p = preds(w2);
  EXPECT_EQ(p.size(), 3u);  // both readers + previous writer
  EXPECT_TRUE(std::find(p.begin(), p.end(), r1->id) != p.end());
  EXPECT_TRUE(std::find(p.begin(), p.end(), r2->id) != p.end());
  EXPECT_TRUE(std::find(p.begin(), p.end(), w1->id) != p.end());
}

TEST(TaskGraph, ConcurrentReaders) {
  TaskGraph g;
  Handle h;
  auto* w = g.submit(0, {}, {{&h, Access::Out}});
  auto* r1 = g.submit(0, {}, {{&h, Access::In}});
  auto* r2 = g.submit(0, {}, {{&h, Access::In}});
  // Readers depend only on the writer, not on each other.
  EXPECT_EQ(preds(r1), std::vector<std::uint64_t>{w->id});
  EXPECT_EQ(preds(r2), std::vector<std::uint64_t>{w->id});
}

TEST(TaskGraph, GatherVMembersCommute) {
  TaskGraph g;
  Handle h;
  auto* w = g.submit(0, {}, {{&h, Access::InOut}});
  auto* g1 = g.submit(0, {}, {{&h, Access::GatherV}});
  auto* g2 = g.submit(0, {}, {{&h, Access::GatherV}});
  auto* g3 = g.submit(0, {}, {{&h, Access::GatherV}});
  // All group members depend only on the writer (constant dependency count,
  // the paper's point).
  EXPECT_EQ(preds(g1), std::vector<std::uint64_t>{w->id});
  EXPECT_EQ(preds(g2), std::vector<std::uint64_t>{w->id});
  EXPECT_EQ(preds(g3), std::vector<std::uint64_t>{w->id});
}

TEST(TaskGraph, JoinAfterGatherVWaitsForAll) {
  TaskGraph g;
  Handle h;
  auto* g1 = g.submit(0, {}, {{&h, Access::GatherV}});
  auto* g2 = g.submit(0, {}, {{&h, Access::GatherV}});
  auto* join = g.submit(0, {}, {{&h, Access::InOut}});
  auto p = preds(join);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_TRUE(std::find(p.begin(), p.end(), g1->id) != p.end());
  EXPECT_TRUE(std::find(p.begin(), p.end(), g2->id) != p.end());
}

TEST(TaskGraph, ReaderClosesGatherGroup) {
  TaskGraph g;
  Handle h;
  auto* g1 = g.submit(0, {}, {{&h, Access::GatherV}});
  auto* r = g.submit(0, {}, {{&h, Access::In}});
  auto* g2 = g.submit(0, {}, {{&h, Access::GatherV}});
  EXPECT_EQ(preds(r), std::vector<std::uint64_t>{g1->id});
  // g2 must be ordered after the reader (it starts a fresh group).
  auto p = preds(g2);
  EXPECT_TRUE(std::find(p.begin(), p.end(), r->id) != p.end());
}

TEST(TaskGraph, IndependentHandlesIndependentTasks) {
  TaskGraph g;
  Handle h1, h2;
  g.submit(0, {}, {{&h1, Access::Out}});
  auto* t2 = g.submit(0, {}, {{&h2, Access::Out}});
  EXPECT_TRUE(preds(t2).empty());
}

TEST(TaskGraph, MultiHandleDedup) {
  TaskGraph g;
  Handle h1, h2;
  auto* w = g.submit(0, {}, {{&h1, Access::Out}, {&h2, Access::Out}});
  auto* r = g.submit(0, {}, {{&h1, Access::In}, {&h2, Access::In}});
  EXPECT_EQ(preds(r), std::vector<std::uint64_t>{w->id});  // deduplicated
}

TEST(TaskGraph, KindsRegistry) {
  TaskGraph g;
  const KindId k = g.register_kind("UpdateVect", false, "#ff0000");
  Handle h;
  auto* t = g.submit(k, {}, {{&h, Access::Out}});
  EXPECT_EQ(g.kind_of(*t).name, "UpdateVect");
  EXPECT_FALSE(g.kind_of(*t).memory_bound);
}

TEST(TaskGraph, ChainHasLinearDeps) {
  TaskGraph g;
  Handle h;
  TaskNode* prev = nullptr;
  for (int i = 0; i < 10; ++i) {
    auto* t = g.submit(0, {}, {{&h, Access::InOut}});
    if (prev) {
      EXPECT_EQ(preds(t), std::vector<std::uint64_t>{prev->id});
    }
    prev = t;
  }
  EXPECT_EQ(g.task_count(), 10u);
}

}  // namespace
}  // namespace dnc::rt
