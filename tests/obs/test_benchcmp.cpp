// Perf-regression gate tests: synthetic BENCH_solver.json pairs exercising
// every verdict, the matching rules, and malformed-input handling.
#include <gtest/gtest.h>

#include <string>

#include "bench/bench_support.hpp"
#include "obs/benchcmp.hpp"

namespace dnc::obs {
namespace {

std::string artifact(double taskflow_median, double mrrr_median, double taskflow_min = 0.0) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                R"({
  "schema": "dnc-bench-solver-v1",
  "metadata": {"git_commit": "abc", "build_type": "Release"},
  "entries": [
    {"driver": "taskflow", "family": "deflate20", "n": 512, "reps": 5,
     "seconds": {"median": %.9f, "q1": 0.009, "q3": 0.011, "min": %.9f},
     "report": {"deflated_fraction": 0.2, "laed4_calls": 1000}},
    {"driver": "mrrr", "family": "wilkinson", "n": 512, "reps": 5,
     "seconds": {"median": %.9f, "q1": 0.30, "q3": 0.32, "min": 0.29}}
  ]
})",
                taskflow_median, taskflow_min > 0.0 ? taskflow_min : taskflow_median * 0.95,
                mrrr_median);
  return buf;
}

BenchArtifact parse(const std::string& text) {
  BenchArtifact a;
  std::string err;
  EXPECT_TRUE(parse_bench_artifact(text, a, &err)) << err;
  return a;
}

TEST(BenchArtifact, ParsesEntriesAndMetadata) {
  const BenchArtifact a = parse(artifact(0.010, 0.31));
  EXPECT_EQ(a.schema, "dnc-bench-solver-v1");
  ASSERT_EQ(a.entries.size(), 2u);
  EXPECT_EQ(a.entries[0].key(), "taskflow|deflate20|512");
  EXPECT_EQ(a.entries[0].reps, 5);
  EXPECT_DOUBLE_EQ(a.entries[0].median, 0.010);
  EXPECT_DOUBLE_EQ(a.entries[1].median, 0.31);
  ASSERT_EQ(a.metadata.size(), 2u);
  EXPECT_EQ(a.metadata[0].first, "git_commit");
  EXPECT_EQ(a.metadata[0].second, "abc");
}

TEST(BenchArtifact, RejectsMalformedInput) {
  BenchArtifact a;
  std::string err;
  EXPECT_FALSE(parse_bench_artifact("{]", a, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_bench_artifact("[1,2,3]", a, &err));
  EXPECT_FALSE(parse_bench_artifact("{\"schema\": \"x\"}", a, &err));  // no entries
  // Two rows with one (driver, family, precision, n) key: compare could only
  // pair one of them, so the artifact is refused.
  err.clear();
  EXPECT_FALSE(parse_bench_artifact(
      R"({"entries": [{"driver": "taskflow", "family": "4", "n": 64},
                      {"driver": "taskflow", "family": "4", "n": 64, "precision": "f64"}]})",
      a, &err));
  EXPECT_NE(err.find("duplicate entry taskflow|4|64"), std::string::npos) << err;
  EXPECT_FALSE(load_bench_artifact("/nonexistent/bench.json", a, &err));
}

TEST(BenchArtifact, SizeSweepListsEachSizeOnce) {
  using V = std::vector<index_t>;
  EXPECT_EQ(bench::size_sweep(1536, 4), (V{454, 682, 1024, 1536}));
  // The 64 floor clips 53 and 35 to the same size: it appears once.
  EXPECT_EQ(bench::size_sweep(80, 3), (V{64, 80}));
  EXPECT_EQ(bench::size_sweep(40, 3), (V{64}));
}

TEST(BenchCompare, WithinNoiseWhenUnchanged) {
  const BenchArtifact base = parse(artifact(0.010, 0.31));
  const BenchArtifact cur = parse(artifact(0.0104, 0.30));  // +-4%
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10);
  EXPECT_TRUE(res.gate_passed());
  EXPECT_EQ(res.regressions, 0);
  EXPECT_EQ(res.within_noise, 2);
  EXPECT_NE(res.render(0.10).find("all within noise"), std::string::npos);
}

TEST(BenchCompare, FlagsRegressionBeyondThreshold) {
  const BenchArtifact base = parse(artifact(0.010, 0.31));
  const BenchArtifact cur = parse(artifact(0.013, 0.31));  // taskflow +30%
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10);
  EXPECT_FALSE(res.gate_passed());
  EXPECT_EQ(res.regressions, 1);
  // Worst ratio first.
  ASSERT_FALSE(res.rows.empty());
  EXPECT_EQ(res.rows.front().key, "taskflow|deflate20|512");
  EXPECT_NEAR(res.rows.front().ratio, 1.3, 1e-12);
  EXPECT_EQ(res.rows.front().verdict, Verdict::kRegression);
  EXPECT_NE(res.render(0.10).find("GATE FAILED"), std::string::npos);
}

TEST(BenchCompare, FlagsImprovement) {
  const BenchArtifact base = parse(artifact(0.010, 0.31));
  const BenchArtifact cur = parse(artifact(0.007, 0.31));  // taskflow -30%
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10);
  EXPECT_TRUE(res.gate_passed());
  EXPECT_EQ(res.improvements, 1);
  EXPECT_EQ(res.within_noise, 1);
}

TEST(BenchCompare, MinStatUsesMinField) {
  const BenchArtifact base = parse(artifact(0.010, 0.31, 0.008));
  const BenchArtifact cur = parse(artifact(0.010, 0.31, 0.012));  // min +50%
  EXPECT_TRUE(compare_bench_artifacts(base, cur, 0.10).gate_passed());
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10, BenchStat::kMin);
  EXPECT_FALSE(res.gate_passed());
}

TEST(BenchCompare, TimeFloorSuppressesTinyCells) {
  const BenchArtifact base = parse(artifact(0.00010, 0.31));
  const BenchArtifact cur = parse(artifact(0.00025, 0.31));  // 2.5x, but 250 us
  EXPECT_FALSE(compare_bench_artifacts(base, cur, 0.10).gate_passed());
  const CompareResult res =
      compare_bench_artifacts(base, cur, 0.10, BenchStat::kMedian, 0.001);
  EXPECT_TRUE(res.gate_passed());
  EXPECT_EQ(res.within_noise, 2);
  // The floor must not suppress cells that cross it on either side.
  const BenchArtifact slow = parse(artifact(0.00010, 0.62));
  EXPECT_FALSE(
      compare_bench_artifacts(base, slow, 0.10, BenchStat::kMedian, 0.001).gate_passed());
}

TEST(BenchCompare, UnmatchedEntriesReportedNotFatal) {
  const BenchArtifact base = parse(artifact(0.010, 0.31));
  BenchArtifact cur = parse(artifact(0.010, 0.31));
  cur.entries[1].n = 1024;  // mrrr|wilkinson|512 -> only_in_base, |1024 new
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10);
  EXPECT_TRUE(res.gate_passed());
  ASSERT_EQ(res.only_in_base.size(), 1u);
  EXPECT_EQ(res.only_in_base[0], "mrrr|wilkinson|512");
  ASSERT_EQ(res.only_in_current.size(), 1u);
  EXPECT_EQ(res.only_in_current[0], "mrrr|wilkinson|1024");
  EXPECT_EQ(res.rows.size(), 1u);
}

TEST(BenchCompare, ZeroBaseStatIsWithinNoise) {
  BenchArtifact base = parse(artifact(0.010, 0.31));
  base.entries[0].median = 0.0;
  const BenchArtifact cur = parse(artifact(0.010, 0.31));
  const CompareResult res = compare_bench_artifacts(base, cur, 0.10);
  EXPECT_TRUE(res.gate_passed());
}

}  // namespace
}  // namespace dnc::obs
