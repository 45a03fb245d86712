// Property sweeps of the full task-flow solver: decomposition invariants
// across all Table III families, sizes, and the tuning knobs, plus
// failure-injection and workload-independence checks.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "../support/precision_testing.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::dc {
namespace {

// Scales the fp64-calibrated literal tolerances when the suite re-runs
// under DNC_PREC=f32 (1 under f64).
const double kTolScale = test_support::tol_scale();

using Case = std::tuple<int /*type*/, int /*n*/>;
class TaskflowSweep : public ::testing::TestWithParam<Case> {};

TEST_P(TaskflowSweep, DecompositionInvariants) {
  const auto [type, ni] = GetParam();
  const index_t n = ni;
  auto t = matgen::table3_matrix(type, n, 99);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 24;
  opt.nb = 40;
  opt.threads = 2;
  stedc_taskflow(n, d.data(), e.data(), v, opt);

  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  EXPECT_LT(verify::orthogonality(v), 1e-14 * kTolScale);
  EXPECT_LT(verify::reduction_residual(t, d, v), 1e-14 * kTolScale);
  const double tr_t = std::accumulate(t.d.begin(), t.d.end(), 0.0);
  const double tr_l = std::accumulate(d.begin(), d.end(), 0.0);
  double scale = 0.0;
  for (double x : t.d) scale += std::fabs(x);
  EXPECT_NEAR(tr_t, tr_l, 1e-12 * kTolScale * std::max(scale, 1.0));
}

INSTANTIATE_TEST_SUITE_P(TypesAndSizes, TaskflowSweep,
                         ::testing::Combine(::testing::Range(1, 16),
                                            ::testing::Values(60, 121)));

TEST(TaskflowProperties, DagIsMatrixIndependent) {
  // The paper: the generated task graph does not depend on the matrix
  // values (deflation-dependent work is decided at execution time).
  const index_t n = 140;
  Options opt;
  opt.minpart = 30;
  opt.nb = 32;
  opt.threads = 1;
  std::size_t counts[2];
  int i = 0;
  for (int type : {2, 13}) {  // ~100% vs 0% deflation
    auto t = matgen::table3_matrix(type, n);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    SolveStats st;
    stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
    counts[i++] = st.trace.events.size();
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(TaskflowProperties, ThreadCountDoesNotChangeResults) {
  const index_t n = 150;
  auto t = matgen::table3_matrix(5, n, 6);
  std::vector<std::vector<double>> eigs;
  for (int threads : {1, 2, 5}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.threads = threads;
    opt.minpart = 32;
    opt.nb = 48;
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    eigs.push_back(d);
  }
  EXPECT_EQ(eigs[0], eigs[1]);
  EXPECT_EQ(eigs[0], eigs[2]);
}

TEST(TaskflowProperties, SimulatedSpeedupBounded) {
  // Simulated P-worker makespan must respect both bounds:
  // total/P <= makespan and critical_path <= makespan.
  const index_t n = 240;
  auto t = matgen::table3_matrix(4, n);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.threads = 1;
  opt.minpart = 48;
  opt.nb = 40;
  SolveStats st;
  stedc_taskflow(n, d.data(), e.data(), v, opt, &st, {1, 3, 7, 16});
  for (const auto& sim : st.simulated) {
    EXPECT_GE(sim.makespan + 1e-12, sim.critical_path);
    EXPECT_LE(sim.efficiency, 1.0 + 1e-12);
  }
  // 1-worker simulation equals total work.
  EXPECT_NEAR(st.simulated[0].makespan, st.simulated[0].total_work, 1e-9);
}

TEST(TaskflowProperties, ExtremeGranularities) {
  const index_t n = 100;
  auto t = matgen::table3_matrix(6, n, 8);
  for (auto [mp, nb] : {std::pair<index_t, index_t>{2, 1}, {99, 1000}, {5, 7}}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.minpart = mp;
    opt.nb = nb;
    opt.threads = 3;
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    EXPECT_LT(verify::reduction_residual(t, d, v), 1e-13 * kTolScale)
        << "mp=" << mp << " nb=" << nb;
  }
}

TEST(TaskflowProperties, ReducibleMatrixWithZeroCouplings) {
  // Exact zeros in e (reducible matrix) must be handled: the rank-one
  // merges then have rho = 0 and deflate everything at that boundary.
  const index_t n = 96;
  auto t = matgen::onetwoone(n);
  t.e[31] = 0.0;
  t.e[63] = 0.0;
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 16;
  stedc_taskflow(n, d.data(), e.data(), v, opt);
  EXPECT_LT(verify::orthogonality(v), 1e-14 * kTolScale);
  EXPECT_LT(verify::reduction_residual(t, d, v), 1e-14 * kTolScale);
}

TEST(TaskflowProperties, AlternatingSignCouplings) {
  const index_t n = 88;
  auto t = matgen::table3_matrix(6, n, 12);
  for (index_t i = 0; i < n - 1; i += 3) t.e[i] = -t.e[i];
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  stedc_taskflow(n, d.data(), e.data(), v, {});
  EXPECT_LT(verify::reduction_residual(t, d, v), 1e-14 * kTolScale);
}

}  // namespace
}  // namespace dnc::dc
