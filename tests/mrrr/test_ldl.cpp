#include "mrrr/ldl.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lapack/bisect.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::mrrr {
namespace {

// Reconstructs the tridiagonal entries of L D L^T for verification.
void reconstruct(const Representation& rep, std::vector<double>& d, std::vector<double>& e) {
  const index_t n = rep.n();
  d.resize(n);
  e.resize(n - 1);
  d[0] = rep.d[0];
  for (index_t i = 0; i + 1 < n; ++i) {
    e[i] = rep.l[i] * rep.d[i];
    d[i + 1] = rep.d[i + 1] + rep.l[i] * rep.l[i] * rep.d[i];
  }
}

TEST(Ldl, FactorReconstructs) {
  auto t = matgen::onetwoone(20);
  const double sigma = -0.5;  // below the spectrum
  auto rep = ldl_factor(20, t.d.data(), t.e.data(), sigma);
  std::vector<double> dr, er;
  reconstruct(rep, dr, er);
  for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(dr[i], t.d[i] - sigma, 1e-13);
  for (index_t i = 0; i + 1 < 20; ++i) EXPECT_NEAR(er[i], t.e[i], 1e-13);
}

TEST(Ldl, DefiniteShiftGivesPositivePivots) {
  auto t = matgen::laguerre(30);
  auto rep = ldl_factor(30, t.d.data(), t.e.data(), -1.0);  // Laguerre is PD
  for (double x : rep.d) EXPECT_GT(x, 0.0);
}

TEST(Ldl, SturmCountMatchesTridiagonalCount) {
  Rng rng(3);
  matgen::Tridiag t;
  const index_t n = 40;
  t.d.resize(n);
  t.e.resize(n - 1);
  for (auto& x : t.d) x = rng.uniform_sym();
  for (auto& x : t.e) x = rng.uniform_sym();
  double glo, ghi;
  lapack::gershgorin_bounds(n, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(n, t.d.data(), t.e.data(), glo - 0.1);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = glo + frac * (ghi - glo);
    EXPECT_EQ(sturm_count_ldl(rep, x - rep.sigma),
              lapack::sturm_count(n, t.d.data(), t.e.data(), x))
        << "at " << x;
  }
}

TEST(Ldl, DstqdsShiftsSpectrum) {
  auto t = matgen::onetwoone(25);
  auto rep = ldl_factor(25, t.d.data(), t.e.data(), -1.0);
  Representation shifted;
  ASSERT_TRUE(dstqds(rep, 0.5, shifted));
  EXPECT_DOUBLE_EQ(shifted.sigma, -0.5);
  // Eigenvalue 0 of original matrix: 2-2cos(pi/26); the shifted rep's
  // eigenvalue must equal it minus the total shift.
  const double lam0 = 2.0 - 2.0 * std::cos(3.14159265358979323846 / 26.0);
  const double got = bisect_ldl(shifted, 0, lam0 - shifted.sigma - 1.0,
                                lam0 - shifted.sigma + 1.0, 0.0);
  EXPECT_NEAR(got + shifted.sigma, lam0, 1e-12);
}

TEST(Ldl, DstqdsComposesWithDirectFactor) {
  // dstqds(rep(sigma), tau) must equal (numerically) ldl_factor(sigma+tau).
  auto t = matgen::legendre(20);
  auto a = ldl_factor(20, t.d.data(), t.e.data(), -2.0);
  Representation via;
  ASSERT_TRUE(dstqds(a, 0.7, via));
  auto direct = ldl_factor(20, t.d.data(), t.e.data(), -1.3);
  std::vector<double> d1, e1, d2, e2;
  reconstruct(via, d1, e1);
  reconstruct(direct, d2, e2);
  for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(d1[i], d2[i], 1e-12);
}

TEST(Ldl, BisectLdlFindsEigenvalues) {
  auto t = matgen::clement(15);
  double glo, ghi;
  lapack::gershgorin_bounds(15, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(15, t.d.data(), t.e.data(), glo - 1.0);
  // Clement eigenvalues are -14, -12, ..., 14.
  for (index_t k = 0; k < 15; ++k) {
    const double exact = -14.0 + 2.0 * k;
    const double got =
        bisect_ldl(rep, k, exact - rep.sigma - 0.5, exact - rep.sigma + 0.5, 0.0) + rep.sigma;
    EXPECT_NEAR(got, exact, 1e-10);
  }
}

// refine_ldl verifies its bracket, so a guess off by far more than the pad
// still yields eigenvalue k, and so does pad = 0.
TEST(Ldl, RefineLdlRecoversFromWrongGuessAndZeroPad) {
  auto t = matgen::clement(15);
  double glo, ghi;
  lapack::gershgorin_bounds(15, t.d.data(), t.e.data(), glo, ghi);
  const double spread = ghi - glo;
  auto rep = ldl_factor(15, t.d.data(), t.e.data(), glo - 1.0);
  for (index_t k = 0; k < 15; ++k) {
    const double exact = -14.0 + 2.0 * k - rep.sigma;
    const double ref = bisect_ldl(rep, k, exact - 0.5, exact + 0.5, 0.0);
    for (double miss : {-1e-3 * spread, 1e-3 * spread, 0.0}) {
      for (double pad : {0.0, 1e-12 * spread}) {
        const double got = refine_ldl(rep, k, exact + miss, pad);
        EXPECT_NEAR(got, ref, 8 * std::numeric_limits<double>::epsilon() * std::fabs(ref))
            << "k=" << k << " miss=" << miss << " pad=" << pad;
      }
    }
  }
}

// A guess one eigenvalue away lands in the neighbour's bracket; the count
// check must move it back to eigenvalue k.
TEST(Ldl, RefineLdlUsesIndexNotNearestEigenvalue) {
  auto t = matgen::clement(9);
  auto rep = ldl_factor(9, t.d.data(), t.e.data(), -9.0);
  for (index_t k = 0; k + 1 < 9; ++k) {
    const double next = -8.0 + 2.0 * (k + 1) - rep.sigma;
    EXPECT_NEAR(refine_ldl(rep, k, next, 1e-6) + rep.sigma, -8.0 + 2.0 * k, 1e-12);
  }
}

TEST(Ldl, RefineLdlNonFiniteGuessThrows) {
  auto t = matgen::onetwoone(12);
  auto rep = ldl_factor(12, t.d.data(), t.e.data(), -1.0);
  EXPECT_THROW(refine_ldl(rep, 3, std::numeric_limits<double>::quiet_NaN(), 1e-3),
               NumericalError);
  EXPECT_THROW(refine_ldl(rep, 3, 1.0, std::numeric_limits<double>::infinity()),
               NumericalError);
  const float d32[] = {2.0f};
  auto rep32 = ldl_factor<float>(1, d32, nullptr, 0.0f);
  EXPECT_THROW(refine_ldl(rep32, 0, std::numeric_limits<float>::quiet_NaN(), 0.0f),
               NumericalError);
}

TEST(Ldl, SingleElement) {
  const double d[] = {3.0};
  auto rep = ldl_factor<double>(1, d, nullptr, 1.0);
  EXPECT_DOUBLE_EQ(rep.d[0], 2.0);
  EXPECT_EQ(sturm_count_ldl(rep, 1.0), 0);
  EXPECT_EQ(sturm_count_ldl(rep, 3.0), 1);
}

}  // namespace
}  // namespace dnc::mrrr
