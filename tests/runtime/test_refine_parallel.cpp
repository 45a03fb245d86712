// The F32RefineF64 epilogue's column-parallel RQI sweep: the refined
// eigenpairs must not depend on how many workers ran the column blocks.
// Like the rest of this suite it runs under the ThreadSanitizer CI job
// (runtime label) and under both DNC_SCHED policies.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"

namespace dnc {
namespace {

struct Refined {
  std::vector<double> lam;
  Matrix v;
  dc::SolveStats stats;
};

Refined solve_refined(const matgen::Tridiag& t, int threads) {
  Refined r;
  r.lam = t.d;
  std::vector<double> e = t.e;
  dc::Options opt;
  opt.precision = Precision::F32RefineF64;
  opt.threads = threads;
  dc::stedc_taskflow(t.n(), r.lam.data(), e.data(), r.v, opt, &r.stats);
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.data() + j * a.ld(), b.data() + j * b.ld(), a.rows() * sizeof(double)) != 0)
      return false;
  return true;
}

TEST(RefineParallel, F32RefineBitIdenticalAcrossThreadCounts) {
  const index_t n = 300;
  for (int type : {4, 15}) {
    const auto t = matgen::table3_matrix(type, n, 7);
    const Refined ref = solve_refined(t, 1);
    ASSERT_EQ(ref.stats.refine.checked, n) << "type " << type;
    for (int threads : {2, 4}) {
      const Refined got = solve_refined(t, threads);
      EXPECT_TRUE(same_bits(got.lam, ref.lam)) << "type " << type << " threads " << threads;
      EXPECT_TRUE(same_bits(got.v, ref.v)) << "type " << type << " threads " << threads;
      EXPECT_EQ(got.stats.refine.checked, ref.stats.refine.checked);
      EXPECT_EQ(got.stats.refine.refined, ref.stats.refine.refined);
      EXPECT_EQ(got.stats.refine.iterations, ref.stats.refine.iterations);
      EXPECT_EQ(got.stats.refine.overlap_dots, ref.stats.refine.overlap_dots);
      EXPECT_EQ(got.stats.refine.max_resid_after, ref.stats.refine.max_resid_after);
    }
  }
}

}  // namespace
}  // namespace dnc
