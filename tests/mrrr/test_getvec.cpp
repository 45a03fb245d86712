#include "mrrr/getvec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "blas/simd/kernels.hpp"
#include "common/rng.hpp"
#include "lapack/bisect.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/ldl.hpp"

namespace dnc::mrrr {
namespace {

// Residual ||(T - lam) v|| for the tridiagonal behind the representation.
double residual(const matgen::Tridiag& t, double lam, const double* z) {
  const index_t n = t.n();
  double worst = 0.0;
  for (index_t i = 0; i < n; ++i) {
    double r = (t.d[i] - lam) * z[i];
    if (i > 0) r += t.e[i - 1] * z[i - 1];
    if (i + 1 < n) r += t.e[i] * z[i + 1];
    worst = std::max(worst, std::fabs(r));
  }
  return worst;
}

TEST(Getvec, WellSeparatedEigenvalues) {
  auto t = matgen::laguerre(40);  // well separated
  double glo, ghi;
  lapack::gershgorin_bounds(40, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(40, t.d.data(), t.e.data(), glo - 1.0);
  auto w = lapack::bisect_all(40, t.d.data(), t.e.data(), 0.0, 1e-13);
  std::vector<double> z(40);
  for (index_t k = 0; k < 40; k += 7) {
    const double lam_local = bisect_ldl(rep, k, w[k] - rep.sigma - 1e-6,
                                        w[k] - rep.sigma + 1e-6, 0.0);
    const auto r = twisted_eigenvector(rep, lam_local, z.data());
    EXPECT_LT(residual(t, rep.sigma + lam_local, z.data()), 1e-10) << "k=" << k;
    EXPECT_NEAR(std::fabs(r.gamma) / std::sqrt(r.znorm2), r.resid, 1e-18);
    // Unit norm.
    double nrm = 0;
    for (double x : z) nrm += x * x;
    EXPECT_NEAR(nrm, 1.0, 1e-12);
  }
}

TEST(Getvec, TwistIndexMatchesLargeEntry) {
  // For a diagonal-dominant matrix the eigenvector of the k-th eigenvalue
  // localises at entry k; the twist should land there.
  matgen::Tridiag t;
  const index_t n = 20;
  t.d.resize(n);
  t.e.assign(n - 1, 0.01);
  for (index_t i = 0; i < n; ++i) t.d[i] = static_cast<double>(i);
  auto rep = ldl_factor(n, t.d.data(), t.e.data(), -1.0);
  std::vector<double> z(n);
  for (index_t k : {index_t{0}, index_t{10}, index_t{19}}) {
    const double lam_local = bisect_ldl(rep, k, static_cast<double>(k) + 1.0 - 0.5,
                                        static_cast<double>(k) + 1.0 + 0.5, 0.0);
    const auto r = twisted_eigenvector(rep, lam_local, z.data());
    EXPECT_EQ(r.twist, k);
    EXPECT_GT(std::fabs(z[k]), 0.99);
  }
}

TEST(Getvec, OrthogonalityForSeparatedPairs) {
  auto t = matgen::onetwoone(30);
  auto rep = ldl_factor(30, t.d.data(), t.e.data(), -0.5);
  auto w = lapack::bisect_all(30, t.d.data(), t.e.data(), 0.0, 1e-14);
  std::vector<double> z1(30), z2(30);
  const double l1 = bisect_ldl(rep, 10, w[10] - rep.sigma - 1e-6, w[10] - rep.sigma + 1e-6, 0.0);
  const double l2 = bisect_ldl(rep, 11, w[11] - rep.sigma - 1e-6, w[11] - rep.sigma + 1e-6, 0.0);
  twisted_eigenvector(rep, l1, z1.data());
  twisted_eigenvector(rep, l2, z2.data());
  double dot = 0;
  for (index_t i = 0; i < 30; ++i) dot += z1[i] * z2[i];
  EXPECT_LT(std::fabs(dot), 1e-12);
}

TEST(Getvec, RayleighCorrectionImprovesEigenvalue) {
  auto t = matgen::hermite(25);
  auto rep = ldl_factor(25, t.d.data(), t.e.data(), -10.0);
  auto w = lapack::bisect_all(25, t.d.data(), t.e.data(), 0.0, 1e-14);
  std::vector<double> z(25);
  // Perturb the eigenvalue a bit; the Rayleigh correction should point back.
  const double truth = w[12] - rep.sigma;
  const double perturbed = truth * (1.0 + 1e-9);
  const auto r = twisted_eigenvector(rep, perturbed, z.data());
  const double corrected = perturbed + rayleigh_correction(r);
  EXPECT_LT(std::fabs(corrected - truth), std::fabs(perturbed - truth));
}

// A batch gives the bytes of one call per eigenvalue under every kernel
// table: eigenvalues, perturbed ones (as the Rayleigh-corrected second
// pass sees them) and a value outside the spectrum, in batches that leave
// partial lane groups. The factorizations, so the twist and gamma, are the
// same under every table; the normalisation (nrm2) may round differently.
TEST(Getvec, BatchMatchesOneAtATime) {
  const index_t n = 97;
  auto t = matgen::table3_matrix(3, n, 4);
  double glo, ghi;
  lapack::gershgorin_bounds(n, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(n, t.d.data(), t.e.data(), glo - 0.03125 * (ghi - glo));
  const auto w = lapack::bisect_all(n, t.d.data(), t.e.data(), 0.0, 1e-14);
  std::vector<double> lambda;
  for (index_t k = 0; k < n; k += 2) lambda.push_back(w[k] - rep.sigma);
  for (index_t k = 1; k < n; k += 9) lambda.push_back((w[k] - rep.sigma) * (1.0 + 1e-9));
  lambda.push_back(ghi - rep.sigma + 1.0);
  const index_t m = static_cast<index_t>(lambda.size());
  const auto same_result = [](const GetvecResult& a, const GetvecResult& b) {
    return a.twist == b.twist && std::memcmp(&a.gamma, &b.gamma, sizeof(double)) == 0 &&
           std::memcmp(&a.znorm2, &b.znorm2, sizeof(double)) == 0 &&
           std::memcmp(&a.resid, &b.resid, sizeof(double)) == 0;
  };
  std::vector<GetvecResult> rref;
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (blas::simd::kernels_for_t<double>(isa) == nullptr) continue;
    blas::simd::ScopedIsaOverride force(isa);
    const std::string name = blas::simd::kernels_t<double>().name;
    std::vector<double> zs(n * m);
    std::vector<GetvecResult> rs(m);
    for (index_t j = 0; j < m; ++j) rs[j] = twisted_eigenvector(rep, lambda[j], zs.data() + j * n);
    for (index_t batch : {index_t{1}, index_t{5}, index_t{16}, m}) {
      const index_t ldz = n + 3;
      std::vector<double> zb(ldz * m);
      std::vector<GetvecResult> rb(m);
      for (index_t j0 = 0; j0 < m; j0 += batch)
        twisted_eigenvectors(rep, std::min(batch, m - j0), lambda.data() + j0,
                             zb.data() + j0 * ldz, ldz, rb.data() + j0);
      for (index_t j = 0; j < m; ++j) {
        EXPECT_TRUE(same_result(rb[j], rs[j])) << name << " batch " << batch << " j=" << j;
        EXPECT_EQ(std::memcmp(zb.data() + j * ldz, zs.data() + j * n, n * sizeof(double)), 0)
            << name << " batch " << batch << " j=" << j;
      }
    }
    if (rref.empty()) rref = rs;
    for (index_t j = 0; j < m; ++j) {
      EXPECT_EQ(rs[j].twist, rref[j].twist) << name << " j=" << j;
      EXPECT_EQ(std::memcmp(&rs[j].gamma, &rref[j].gamma, sizeof(double)), 0) << name << " j=" << j;
    }
  }
}

// At lambda = -1 both transforms meet a zero pivot (d0 + s0 = -1 + 1 and
// dll + p1 = -4 + 4), guarded to safmin, so the multiplier |ld| / safmin
// = 2 / safmin overflows the back-substitution's 1/safmin limit: that
// entry is flushed to zero and the vector stays finite, under every
// kernel table and in a batch.
TEST(Getvec, OverflowingEntryIsFlushed) {
  Representation rep;
  rep.d = {-1.0, 3.0};
  rep.l = {-2.0};
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (blas::simd::kernels_for_t<double>(isa) == nullptr) continue;
    blas::simd::ScopedIsaOverride force(isa);
    const double lambda[] = {-1.0, -1.0, 0.25};
    std::vector<double> z(2 * 3);
    GetvecResult r[3];
    twisted_eigenvectors(rep, 3, lambda, z.data(), 2, r);
    EXPECT_EQ(r[0].twist, 0);
    EXPECT_EQ(z[0], 1.0);
    EXPECT_EQ(z[1], 0.0);
    EXPECT_EQ(std::memcmp(z.data(), z.data() + 2, 2 * sizeof(double)), 0);
  }
}

TEST(Getvec, SingleElement) {
  Representation rep;
  rep.sigma = 0.0;
  rep.d = {2.5};
  std::vector<double> z(1);
  const auto r = twisted_eigenvector(rep, 2.5, z.data());
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_NEAR(r.gamma, 0.0, 1e-15);
}

}  // namespace
}  // namespace dnc::mrrr
