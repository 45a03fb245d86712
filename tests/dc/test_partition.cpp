#include "dc/partition.hpp"

#include <gtest/gtest.h>

namespace dnc::dc {
namespace {

TEST(Partition, SingleLeafWhenSmall) {
  auto plan = build_plan(50, 64);
  EXPECT_EQ(plan.nodes.size(), 1u);
  EXPECT_TRUE(plan.nodes[0].leaf());
  EXPECT_EQ(plan.leaf_count, 1);
  EXPECT_EQ(plan.root, 0);
}

TEST(Partition, BinarySplit) {
  auto plan = build_plan(100, 64);
  ASSERT_EQ(plan.nodes.size(), 3u);
  EXPECT_TRUE(plan.nodes[0].leaf());
  EXPECT_TRUE(plan.nodes[1].leaf());
  EXPECT_FALSE(plan.nodes[2].leaf());
  EXPECT_EQ(plan.nodes[2].n1, 50);
  EXPECT_EQ(plan.nodes[0].m + plan.nodes[1].m, 100);
}

TEST(Partition, PostOrderChildrenBeforeParent) {
  auto plan = build_plan(1000, 100);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const auto& nd = plan.nodes[i];
    if (nd.leaf()) continue;
    EXPECT_LT(nd.son1, static_cast<index_t>(i));
    EXPECT_LT(nd.son2, static_cast<index_t>(i));
  }
}

TEST(Partition, CoversRangeExactly) {
  auto plan = build_plan(777, 60);
  // Leaves tile [0, 777) without gaps or overlap.
  std::vector<char> covered(777, 0);
  for (const auto& nd : plan.nodes) {
    if (!nd.leaf()) continue;
    for (index_t i = nd.i0; i < nd.i0 + nd.m; ++i) {
      EXPECT_EQ(covered[i], 0);
      covered[i] = 1;
    }
  }
  for (char c : covered) EXPECT_EQ(c, 1);
}

TEST(Partition, ParentSpansSons) {
  auto plan = build_plan(513, 40);
  for (const auto& nd : plan.nodes) {
    if (nd.leaf()) continue;
    const auto& s1 = plan.nodes[nd.son1];
    const auto& s2 = plan.nodes[nd.son2];
    EXPECT_EQ(s1.i0, nd.i0);
    EXPECT_EQ(s2.i0, nd.i0 + nd.n1);
    EXPECT_EQ(s1.m + s2.m, nd.m);
    EXPECT_EQ(s1.level, nd.level + 1);
    EXPECT_EQ(s2.level, nd.level + 1);
  }
}

TEST(Partition, LeafSizesBounded) {
  for (index_t minpart : {index_t{3}, index_t{17}, index_t{300}}) {
    auto plan = build_plan(2500, minpart);
    for (const auto& nd : plan.nodes) {
      if (nd.leaf()) {
        EXPECT_LE(nd.m, std::max<index_t>(minpart, 2));
      }
    }
  }
}

TEST(Partition, PaperExample) {
  // Figure 2 of the paper: n=1000, minimal partition 300 gives four leaves
  // of 250 each.
  auto plan = build_plan(1000, 300);
  EXPECT_EQ(plan.leaf_count, 4);
  for (const auto& nd : plan.nodes) {
    if (nd.leaf()) {
      EXPECT_EQ(nd.m, 250);
    }
  }
}

TEST(Partition, InvalidArgsThrow) {
  EXPECT_THROW(build_plan(0, 10), InvalidArgument);
  EXPECT_THROW(build_plan(10, 0), InvalidArgument);
}

}  // namespace
}  // namespace dnc::dc
