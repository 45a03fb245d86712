// sterf (dsterf: square-root-free implicit QL/QR, eigenvalues only) against
// closed forms and against Sturm-count bisection, in both precisions.
#include "lapack/sterf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/matrix.hpp"
#include "common/real_traits.hpp"
#include "common/rng.hpp"
#include "lapack/bisect.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::lapack {
namespace {

// The error bound is kC * n * eps * max|lambda|, eps the unit roundoff of the
// working precision (2^-53 / 2^-24), plus the tolerance of the fp64
// bisection reference (kRefTol * ||T|| + 4 * safmin, bisect_all's interval
// width). Over
// the 15 Table III types at n in {1, 2, 3, 17, 64, 130, 512, 2000} the worst
// error measured was 1.33 * n * eps * max|lambda| (fp64, n = 3); at
// n = 2000 it was 147 * eps * max|lambda| (type 15). kC = 4 leaves room for
// inputs that differ with the kernel table matgen runs on.
constexpr double kC = 4.0;
constexpr double kRefTol = 1.0e-18;

template <typename Real>
void expect_matches_bisection(const std::vector<double>& d0, const std::vector<double>& e0,
                              const std::string& what) {
  const index_t n = static_cast<index_t>(d0.size());
  std::vector<Real> d(d0.begin(), d0.end()), e(e0.begin(), e0.end());
  const std::vector<double> dr(d.begin(), d.end()), er(e.begin(), e.end());
  double tnorm = 0.0;
  for (double v : dr) tnorm = std::max(tnorm, std::fabs(v));
  for (double v : er) tnorm = std::max(tnorm, std::fabs(v));
  const double ref_tol = kRefTol * tnorm + 4 * real_traits<double>::safmin();
  const std::vector<double> ref = bisect_all(n, dr.data(), er.data(), 0.0, ref_tol);
  sterf(n, d.data(), e.data());
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << what;
  double amax = 0.0;
  for (double v : ref) amax = std::max(amax, std::fabs(v));
  const double bound = kC * n * static_cast<double>(real_traits<Real>::eps()) * amax + ref_tol;
  for (index_t i = 0; i < n; ++i)
    ASSERT_LE(std::fabs(static_cast<double>(d[i]) - ref[i]), bound)
        << what << " " << real_traits<Real>::name() << " i=" << i;
}

void expect_matches_bisection_both(const std::vector<double>& d, const std::vector<double>& e,
                                   const std::string& what) {
  expect_matches_bisection<double>(d, e, what);
  expect_matches_bisection<float>(d, e, what);
}

TEST(Sterf, ClementAnalytic) {
  // Clement matrix of order n has eigenvalues +-(n-1), +-(n-3), ...
  const index_t n = 51;
  auto t = matgen::clement(n);
  std::vector<double> d = t.d, e = t.e;
  sterf(n, d.data(), e.data());
  for (index_t k = 0; k < n; ++k) {
    const double exact = -static_cast<double>(n - 1) + 2.0 * k;
    EXPECT_NEAR(d[k], exact, 1e-10);
  }
}

TEST(Sterf, AgreesWithBisection) {
  Rng rng(6);
  matgen::Tridiag m;
  const index_t n = 80;
  m.d.resize(n);
  m.e.resize(n - 1);
  for (auto& x : m.d) x = rng.uniform_sym();
  for (auto& x : m.e) x = rng.uniform_sym();
  std::vector<double> d = m.d, e = m.e;
  sterf(n, d.data(), e.data());
  const auto ref = bisect_all(n, m.d.data(), m.e.data());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(d[i], ref[i], 1e-11);
}

TEST(Sterf, WilkinsonPairs) {
  // W21+ eigenvalues come in near pairs; the largest pair agrees to ~1e-15
  // but they are NOT equal. Check pairing structure.
  auto t = matgen::wilkinson(21);
  std::vector<double> d = t.d, e = t.e;
  sterf(21, d.data(), e.data());
  EXPECT_NEAR(d[20], 10.746194182903393, 1e-9);
  EXPECT_LT(d[20] - d[19], 1e-12);
  EXPECT_GT(d[20] - d[19], 0.0);
}

TEST(Sterf, ZeroDimension) {
  sterf<double>(0, nullptr, nullptr);  // must not crash
  sterf<float>(0, nullptr, nullptr);
  double d = 4.2;
  sterf<double>(1, &d, nullptr);
  EXPECT_EQ(d, 4.2);
}

TEST(Sterf, ExtremeScalesTakeTheScalingWindow) {
  // Squaring the off-diagonals of a block scaled by 1e300 overflows and by
  // 1e-150 or 1e-300 underflows to a split at every entry, so these answers
  // are only right if sterf scales the block into its window first (down
  // above ssfmax, up below ssfmin); 1e150 squares safely and runs unscaled.
  const index_t n = 64;
  const auto t = matgen::table3_matrix(4, n);
  const std::vector<double> ref = bisect_all(n, t.d.data(), t.e.data());
  double amax = 0.0;
  for (double v : ref) amax = std::max(amax, std::fabs(v));
  for (double scale : {1e150, 1e-150, 1e300, 1e-300}) {
    std::vector<double> d = t.d, e = t.e;
    for (double& x : d) x *= scale;
    for (double& x : e) x *= scale;
    sterf(n, d.data(), e.data());
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << scale;
    const double bound = kC * n * real_traits<double>::eps() * amax;
    for (index_t i = 0; i < n; ++i) ASSERT_LE(std::fabs(d[i] / scale - ref[i]), bound) << scale;
  }
  // fp32's window is [~3e-5, ~3e18]: 1e-15 and 1e-30 scale up, 1e30 down.
  for (double scale : {1e15, 1e-15, 1e30, 1e-30}) {
    std::vector<float> d(t.d.begin(), t.d.end()), e(t.e.begin(), t.e.end());
    for (float& x : d) x *= static_cast<float>(scale);
    for (float& x : e) x *= static_cast<float>(scale);
    sterf(n, d.data(), e.data());
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << scale;
    const double bound = 4 * kC * n * real_traits<float>::eps() * amax;
    for (index_t i = 0; i < n; ++i)
      ASSERT_LE(std::fabs(static_cast<double>(d[i]) / scale - ref[i]), bound) << scale;
  }
}

TEST(Sterf, GradedTakesQrBranch) {
  // Diagonal falling from 1e12 to 1e-12: |d[n-1]| < |d[0]|, so the block is
  // iterated by QR from the bottom. The reversed matrix runs QL.
  const index_t n = 40;
  std::vector<double> d(n), e(n - 1);
  for (index_t i = 0; i < n; ++i) d[i] = std::pow(10.0, 12.0 - 24.0 * i / (n - 1));
  for (index_t i = 0; i + 1 < n; ++i) e[i] = 0.5 * std::min(d[i], d[i + 1]);
  ASSERT_LT(std::fabs(d[n - 1]), std::fabs(d[0]));
  expect_matches_bisection_both(d, e, "graded QR");
  std::reverse(d.begin(), d.end());
  std::reverse(e.begin(), e.end());
  expect_matches_bisection_both(d, e, "graded QL");
}

TEST(Sterf, SplitMatrix) {
  // Zero off-diagonals in the middle split T into blocks of sizes 10, 1, 2,
  // 1 and 16, which sterf must solve one by one and merge in sorted order.
  const index_t n = 30;
  const auto t = matgen::table3_matrix(3, n);
  std::vector<double> d = t.d, e = t.e;
  for (index_t i : {9, 10, 12, 13}) e[i] = 0.0;
  expect_matches_bisection_both(d, e, "split");
}

using Case = std::tuple<int /*type*/, int /*n*/>;
class SterfSweep : public ::testing::TestWithParam<Case> {};

TEST_P(SterfSweep, MatchesBisection) {
  const auto [type, n] = GetParam();
  const auto t = matgen::table3_matrix(type, n, 1234);
  expect_matches_bisection_both(t.d, t.e, "type " + std::to_string(type));
}

INSTANTIATE_TEST_SUITE_P(TypesAndSizes, SterfSweep,
                         ::testing::Combine(::testing::Range(1, 16),
                                            ::testing::Values(1, 2, 3, 17, 64, 130, 512)));

}  // namespace
}  // namespace dnc::lapack
