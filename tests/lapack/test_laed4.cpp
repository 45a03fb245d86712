#include "lapack/laed4.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/simd/kernels.hpp"
#include "common/machine.hpp"
#include "common/rng.hpp"

namespace dnc::lapack {
namespace {

double secular(index_t k, const double* d, const double* z, double rho, double lam) {
  double f = 1.0;
  for (index_t j = 0; j < k; ++j) f += rho * z[j] * z[j] / (d[j] - lam);
  return f;
}

// Checks interlacing, residual of the secular equation, and delta accuracy
// for every root of the given system.
void check_all_roots(const std::vector<double>& d, std::vector<double> z, double rho,
                     double tol = 1e-12) {
  const index_t k = static_cast<index_t>(d.size());
  // Normalize z (the deflation step always hands laed4 a unit vector).
  double nrm = 0.0;
  for (double v : z) nrm += v * v;
  nrm = std::sqrt(nrm);
  for (auto& v : z) v /= nrm;
  double zmax = 0.0;
  for (double v : z) zmax = std::max(zmax, std::fabs(v));

  std::vector<double> delta(k);
  double prev = -std::numeric_limits<double>::infinity();
  for (index_t i = 0; i < k; ++i) {
    const auto res = laed4(k, i, d.data(), z.data(), rho, delta.data());
    // Interlacing: d_i < lambda_i < d_{i+1} (or the final interval).
    EXPECT_GT(res.lambda, d[i]) << "root " << i;
    if (i + 1 < k)
      EXPECT_LT(res.lambda, d[i + 1]) << "root " << i;
    else
      EXPECT_LT(res.lambda, d[k - 1] + rho * 1.0000001);
    EXPECT_GT(res.lambda, prev) << "roots must be increasing";
    prev = res.lambda;
    // delta consistency: delta[j] == d[j] - lambda to good accuracy.
    for (index_t j = 0; j < k; ++j)
      EXPECT_NEAR(delta[j], d[j] - res.lambda,
                  1e-8 * (std::fabs(d[j]) + std::fabs(res.lambda)) + 1e-300);
    // The secular equation evaluated through the returned deltas must be
    // ~zero relative to the sum of term magnitudes.
    double f = 1.0, mags = 1.0;
    for (index_t j = 0; j < k; ++j) {
      const double term = rho * z[j] * z[j] / delta[j];
      f -= term;  // note: delta = d - lambda, f = 1 + rho sum z^2/(d-lam)
      mags += std::fabs(term);
    }
    // f here = 1 - sum rho z^2/delta... fix sign: term = rho z^2/(d-lam) =
    // rho z^2/delta, f = 1 + sum(term).
    f = 1.0;
    for (index_t j = 0; j < k; ++j) f += rho * z[j] * z[j] / delta[j];
    EXPECT_LT(std::fabs(f), tol * mags) << "root " << i << " secular residual";
  }
  (void)zmax;
  (void)secular;
}

TEST(Laed4, SizeOne) {
  const double d[] = {2.0};
  const double z[] = {1.0};
  double delta[1];
  const auto r = laed4(1, 0, d, z, 0.5, delta);
  EXPECT_DOUBLE_EQ(r.lambda, 2.5);
  EXPECT_DOUBLE_EQ(delta[0], -0.5);
}

TEST(Laed4, SizeTwoMatches2x2Eigen) {
  // D + rho z z^T for k=2 has a closed form; cross-check against direct
  // symmetric 2x2 eigen computation.
  const double d[] = {-1.0, 2.0};
  double z[] = {0.6, 0.8};
  const double rho = 1.5;
  // Matrix: [d0 + r z0^2, r z0 z1; ..., d1 + r z1^2]
  const double a = d[0] + rho * z[0] * z[0];
  const double b = rho * z[0] * z[1];
  const double c = d[1] + rho * z[1] * z[1];
  const double tr = a + c, det = a * c - b * b;
  const double disc = std::sqrt(tr * tr - 4 * det);
  const double lam0 = (tr - disc) / 2, lam1 = (tr + disc) / 2;
  double delta[2];
  EXPECT_NEAR(laed4(2, 0, d, z, rho, delta).lambda, lam0, 1e-13);
  EXPECT_NEAR(laed4(2, 1, d, z, rho, delta).lambda, lam1, 1e-13);
}

TEST(Laed4, UniformSystem) {
  std::vector<double> d{0, 1, 2, 3, 4, 5};
  std::vector<double> z(6, 1.0);
  check_all_roots(d, z, 1.0);
}

TEST(Laed4, SmallRho) {
  std::vector<double> d{0, 1, 2, 3};
  std::vector<double> z{1, 1, 1, 1};
  check_all_roots(d, z, 1e-10);
}

TEST(Laed4, LargeRho) {
  std::vector<double> d{0, 0.5, 1.5, 2};
  std::vector<double> z{1, 2, 3, 4};
  check_all_roots(d, z, 1e8);
}

TEST(Laed4, TinyZComponent) {
  // A nearly-deflated component stresses the root near its pole.
  std::vector<double> d{0, 1, 2};
  std::vector<double> z{1.0, 1e-7, 1.0};
  check_all_roots(d, z, 2.0);
}

TEST(Laed4, CloseButNotDeflatedPoles) {
  std::vector<double> d{0.0, 1.0, 1.0 + 1e-7, 2.0};
  std::vector<double> z{1, 1, 1, 1};
  check_all_roots(d, z, 1.0, 1e-11);
}

TEST(Laed4, GradedPoles) {
  std::vector<double> d;
  for (int i = 0; i < 20; ++i) d.push_back(std::pow(10.0, -10.0 + i));
  std::vector<double> z(20, 1.0);
  check_all_roots(d, z, 3.7);
}

TEST(Laed4, RandomSweep) {
  Rng rng(99);
  for (int t = 0; t < 50; ++t) {
    const index_t k = 3 + static_cast<index_t>(rng.uniform_below(40));
    std::vector<double> d(k);
    double acc = rng.uniform_sym();
    for (index_t i = 0; i < k; ++i) {
      acc += 1e-6 + rng.uniform01();
      d[i] = acc;
    }
    std::vector<double> z(k);
    for (auto& v : z) {
      v = rng.uniform_sym();
      if (std::fabs(v) < 1e-3) v = 1e-3;  // deflation guarantees nonzero z
    }
    const double rho = 1e-3 + 10.0 * rng.uniform01();
    check_all_roots(d, z, rho, 1e-10);
  }
}

TEST(Laed4, EigenvaluesSumRule) {
  // trace(D + rho z z^T) = sum d_i + rho for unit z: roots must sum to it.
  std::vector<double> d{0.1, 0.9, 2.3, 3.1, 7.0};
  std::vector<double> z{1, -1, 2, 0.5, 1};
  double nrm = 0;
  for (double v : z) nrm += v * v;
  for (auto& v : z) v /= std::sqrt(nrm);
  const double rho = 2.7;
  std::vector<double> delta(5);
  double sum = 0.0;
  for (index_t i = 0; i < 5; ++i) sum += laed4(5, i, d.data(), z.data(), rho, delta.data()).lambda;
  double want = rho;
  for (double v : d) want += v;
  EXPECT_NEAR(sum, want, 1e-11 * std::fabs(want));
}

TEST(Laed4, InvalidArgsThrow) {
  const double d[] = {0.0, 1.0};
  const double z[] = {1.0, 1.0};
  double delta[2];
  EXPECT_THROW(laed4(2, 2, d, z, 1.0, delta), InvalidArgument);
  EXPECT_THROW(laed4(2, 0, d, z, -1.0, delta), InvalidArgument);
}

TEST(Laed4, SimdDispatchAgreesWithScalarWithin8Eps) {
  // The pole sums run through the SIMD dispatch table; FMA and block-wise
  // summation may perturb the iteration, but every root must agree with the
  // forced-scalar path to the solver's own convergence tolerance (8 eps on
  // the secular residual translates to ~8 eps relative on tau).
  const index_t k = 257;  // odd length: exercises every vector tail
  Rng rng(77);
  std::vector<double> d(k), z(k);
  double acc = 0.0, nrm = 0.0;
  for (index_t j = 0; j < k; ++j) {
    acc += 0.01 + rng.uniform01();
    d[j] = acc;
    z[j] = 0.05 + rng.uniform01();
    nrm += z[j] * z[j];
  }
  nrm = std::sqrt(nrm);
  for (auto& v : z) v /= nrm;
  const double rho = 1.7;
  const double eps = lamch_eps();

  for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (blas::simd::kernels_for(isa) == nullptr) continue;  // not on this host/build
    for (index_t i = 0; i < k; i += 7) {
      std::vector<double> delta_s(k), delta_v(k);
      SecularResult rs, rv;
      {
        blas::simd::ScopedIsaOverride force(SimdIsa::Scalar);
        rs = laed4(k, i, d.data(), z.data(), rho, delta_s.data());
      }
      {
        blas::simd::ScopedIsaOverride force(isa);
        rv = laed4(k, i, d.data(), z.data(), rho, delta_v.data());
      }
      // Both paths stop on |f| <= 8 eps * sum|terms|, so each tau lies
      // within ~erretm/f' of the true root; they must agree to twice that
      // plus 8 eps relative slack.
      const double lam = rs.origin + rs.tau;
      double dw = 0.0, mags = 1.0;
      for (index_t j = 0; j < k; ++j) {
        const double t = z[j] / (d[j] - lam);
        dw += rho * t * t;
        mags += std::fabs(rho * z[j] * z[j] / (d[j] - lam));
      }
      const double tol = 4.0 * (8.0 * eps * mags) / dw + 8.0 * eps * std::fabs(rs.tau);
      EXPECT_NEAR(rv.tau, rs.tau, tol) << "isa=" << static_cast<int>(isa) << " root " << i;
      EXPECT_EQ(rv.origin, rs.origin) << "origin pole choice must not flip";
      // Both must satisfy the secular equation to the solver tolerance.
      // Evaluate through the returned deltas (exact d_j - lambda to full
      // relative accuracy); the tolerance carries an O(k eps) term for the
      // test's own re-summation rounding.
      for (const auto* dl : {&delta_s, &delta_v}) {
        double f = 1.0, mags = 1.0;
        for (index_t j = 0; j < k; ++j) {
          const double term = rho * z[j] * z[j] / (*dl)[j];
          f += term;
          mags += std::fabs(term);
        }
        EXPECT_LT(std::fabs(f), (64.0 + 4.0 * k) * eps * mags) << "root " << i;
      }
    }
  }
}

TEST(Laed5, MatchesLaed4OnRandom2x2) {
  Rng rng(123);
  for (int t = 0; t < 200; ++t) {
    double d[2];
    d[0] = rng.uniform_sym();
    d[1] = d[0] + 0.01 + rng.uniform01();
    double z[2] = {0.1 + rng.uniform01(), 0.1 + rng.uniform01()};
    const double nrm = std::sqrt(z[0] * z[0] + z[1] * z[1]);
    z[0] /= nrm;
    z[1] /= nrm;
    const double rho = 0.01 + 5 * rng.uniform01();
    for (index_t i = 0; i < 2; ++i) {
      double delta[2];
      const double lam = laed5(i, d, z, rho, delta);
      const double f = secular(2, d, z, rho, lam);
      // |f| should be tiny relative to term magnitudes.
      double mags = 1.0;
      for (int j = 0; j < 2; ++j) mags += std::fabs(rho * z[j] * z[j] / (d[j] - lam));
      EXPECT_LT(std::fabs(f), 1e-12 * mags);
    }
  }
}

}  // namespace
}  // namespace dnc::lapack
