// refine_eigenpairs' block-parallel phases (the lane-batched RQI sweep,
// which also records the residuals, the banded-GEMM overlap scan and the
// coloured polish): the refined eigenpairs must not depend on how many
// workers ran the blocks.
// Like the rest of this suite it runs under the ThreadSanitizer CI job
// (runtime label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "blas/aux.hpp"
#include "dc/api.hpp"
#include "lapack/refine.hpp"
#include "lapack/steqr.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc {
namespace {

struct Refined {
  std::vector<double> lam;
  Matrix v;
  lapack::RefineReport refine;
};

/// The fp32 D&C solve, then refine_eigenpairs of its widened pairs against
/// the fp64 T, both on `threads` workers.
Refined solve_refined(const matgen::Tridiag& t, int threads) {
  Refined r;
  r.lam = t.d;
  std::vector<double> e = t.e;
  dc::Options opt;
  opt.precision = Precision::F32;
  opt.threads = threads;
  dc::stedc_taskflow(t.n(), r.lam.data(), e.data(), r.v, opt);
  r.refine = lapack::refine_eigenpairs(t.n(), t.d.data(), t.e.data(), r.lam.data(), r.v.data(),
                                       r.v.ld(), t.n(), threads);
  return r;
}

constexpr double kEps64 = std::numeric_limits<double>::epsilon();

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
    ASSERT_EQ(ref.refine.checked, n) << "type " << type;
    for (int threads : {2, 4}) {
      const Refined got = solve_refined(t, threads);
      EXPECT_TRUE(same_bits(got.lam, ref.lam)) << "type " << type << " threads " << threads;
      EXPECT_TRUE(same_bits(got.v, ref.v)) << "type " << type << " threads " << threads;
      EXPECT_EQ(got.refine.checked, ref.refine.checked);
      EXPECT_EQ(got.refine.refined, ref.refine.refined);
      EXPECT_EQ(got.refine.iterations, ref.refine.iterations);
      EXPECT_EQ(got.refine.overlap_dots, ref.refine.overlap_dots);
      EXPECT_EQ(got.refine.max_resid_after, ref.refine.max_resid_after);
    }
  }
}

// refine_eigenpairs on its own, from fp64 steqr eigenpairs rounded through
// fp32: an input that depends on neither D&C nor LAED4, so the pinned
// overlap-dot counts below move only when the refinement itself changes.
struct RefineCase {
  const char* name;
  int type;
  double shift;               ///< added to the diagonal, in units of ||T||_1
  std::int64_t overlap_dots;  ///< pairs the cluster scan tests
};

struct RefineRun {
  std::vector<double> lam;
  Matrix v;
  lapack::RefineReport rep;
};

RefineRun refine_rounded_steqr(const matgen::Tridiag& t, int threads) {
  const index_t n = t.n();
  RefineRun r;
  r.lam = t.d;
  std::vector<double> e = t.e;
  r.v.resize(n, n);
  lapack::steqr(lapack::CompZ::Identity, n, r.lam.data(), e.data(), r.v.data(), r.v.ld());
  for (double& x : r.lam) x = static_cast<double>(static_cast<float>(x));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) r.v(i, j) = static_cast<double>(static_cast<float>(r.v(i, j)));
  r.rep = lapack::refine_eigenpairs(n, t.d.data(), t.e.data(), r.lam.data(), r.v.data(),
                                    r.v.ld(), n, threads);
  return r;
}

// Most columns whose eigenvalues lie within the polish window of one
// column (lam_k - lam_q <= 5e-2 ||T||_1, as in refine.cpp).
index_t widest_polish_window(const matgen::Tridiag& t, const std::vector<double>& lam) {
  const double wide = 5e-2 * blas::lanst_one(t.n(), t.d.data(), t.e.data());
  index_t widest = 0;
  for (index_t k = 0, q = 0; k < t.n(); ++k) {
    while (lam[static_cast<std::size_t>(k)] - lam[static_cast<std::size_t>(q)] > wide) ++q;
    widest = std::max(widest, k - q);
  }
  return widest;
}

TEST(RefineParallel, RefineEigenpairsBitIdenticalAcrossThreadCounts) {
  const index_t n = 300;
  // A diagonal shift leaves the eigenvectors alone but widens the polish
  // window (5e-2 ||T||_1) relative to the spectrum: + 8 ||T||_1 makes a
  // window span several 64-column blocks, so several colour phases run;
  // + 100 ||T||_1 puts the whole spectrum in one window and one scan cluster.
  // The overlap_dots values are what a scan dotting one pair at a time
  // reports on these inputs: the banded-GEMM scan must test the same pairs
  // and stop at the same one.
  const RefineCase cases[] = {
      {"type 4", 4, 0.0, 5510},
      {"type 15", 15, 0.0, 2780},
      {"type 4 + 8||T||", 4, 8.0, 37445},
      {"type 4 + 100||T||", 4, 100.0, 44850},
  };
  for (const RefineCase& c : cases) {
    matgen::Tridiag t = matgen::table3_matrix(c.type, n, 7);
    const double shift = c.shift * blas::lanst_one(n, t.d.data(), t.e.data());
    for (double& x : t.d) x += shift;

    const RefineRun ref = refine_rounded_steqr(t, 1);
    EXPECT_EQ(ref.rep.checked, n) << c.name;
    EXPECT_EQ(ref.rep.overlap_dots, c.overlap_dots) << c.name;
    EXPECT_LT(verify::orthogonality(ref.v), 100.0 * kEps64) << c.name;
    EXPECT_LT(verify::reduction_residual(t, ref.lam, ref.v), 100.0 * kEps64) << c.name;
    const index_t window = widest_polish_window(t, ref.lam);
    if (c.shift == 8.0) {
      EXPECT_GE(window, 2 * 64) << c.name;
      EXPECT_LT(window, n - 1) << c.name;
    }
    if (c.shift == 100.0) {
      EXPECT_EQ(window, n - 1) << c.name;
    }
    for (int threads : {2, 4}) {
      const RefineRun got = refine_rounded_steqr(t, threads);
      EXPECT_TRUE(same_bits(got.lam, ref.lam)) << c.name << " threads " << threads;
      EXPECT_TRUE(same_bits(got.v, ref.v)) << c.name << " threads " << threads;
      EXPECT_EQ(got.rep.checked, ref.rep.checked) << c.name;
      EXPECT_EQ(got.rep.refined, ref.rep.refined) << c.name;
      EXPECT_EQ(got.rep.iterations, ref.rep.iterations) << c.name;
      EXPECT_EQ(got.rep.overlap_dots, ref.rep.overlap_dots) << c.name;
      EXPECT_EQ(got.rep.max_resid_before, ref.rep.max_resid_before) << c.name;
      EXPECT_EQ(got.rep.max_resid_after, ref.rep.max_resid_after) << c.name;
    }
  }
}

}  // namespace
}  // namespace dnc
