#include "lapack/steqr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::lapack {
namespace {

// Max |T v_j - lam_j v_j| over all entries.
double residual(const matgen::Tridiag& t, const std::vector<double>& lam, const Matrix& z) {
  const index_t n = t.n();
  double worst = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double r = t.d[i] * z(i, j);
      if (i > 0) r += t.e[i - 1] * z(i - 1, j);
      if (i + 1 < n) r += t.e[i] * z(i + 1, j);
      r -= lam[j] * z(i, j);
      worst = std::max(worst, std::fabs(r));
    }
  }
  return worst;
}

double ortho(const Matrix& z) {
  const index_t n = z.rows();
  double worst = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0;
      for (index_t k = 0; k < n; ++k) s += z(k, i) * z(k, j);
      worst = std::max(worst, std::fabs(s - (i == j ? 1.0 : 0.0)));
    }
  return worst;
}

void solve_and_check(const matgen::Tridiag& t, double tol_factor = 50.0) {
  const index_t n = t.n();
  std::vector<double> d = t.d, e = t.e;
  e.resize(std::max<index_t>(1, n));
  Matrix z(n, n);
  steqr(CompZ::Identity, n, d.data(), e.data(), z.data(), n);
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  double tnorm = 0.0;
  for (double v : t.d) tnorm = std::max(tnorm, std::fabs(v));
  for (double v : t.e) tnorm = std::max(tnorm, std::fabs(v));
  tnorm = std::max(tnorm, 1e-30);
  const double eps = std::numeric_limits<double>::epsilon();
  EXPECT_LT(residual(t, d, z), tol_factor * n * eps * tnorm);
  EXPECT_LT(ortho(z), tol_factor * n * eps);
}

TEST(Steqr, OneByOne) {
  std::vector<double> d{4.2}, e{0.0};
  Matrix z(1, 1);
  steqr(CompZ::Identity, 1, d.data(), e.data(), z.data(), 1);
  EXPECT_DOUBLE_EQ(d[0], 4.2);
  EXPECT_DOUBLE_EQ(z(0, 0), 1.0);
}

TEST(Steqr, TwoByTwo) {
  // [1 2; 2 1] has eigenvalues -1, 3.
  std::vector<double> d{1.0, 1.0}, e{2.0};
  Matrix z(2, 2);
  steqr(CompZ::Identity, 2, d.data(), e.data(), z.data(), 2);
  EXPECT_NEAR(d[0], -1.0, 1e-14);
  EXPECT_NEAR(d[1], 3.0, 1e-14);
}

TEST(Steqr, OneTwoOneAnalytic) {
  // Eigenvalues of (1,2,1) of order n: 2 - 2cos(k pi / (n+1)).
  const index_t n = 100;
  auto t = matgen::onetwoone(n);
  std::vector<double> d = t.d, e = t.e;
  Matrix z(n, n);
  steqr(CompZ::Identity, n, d.data(), e.data(), z.data(), n);
  const double pi = 3.14159265358979323846;
  for (index_t k = 0; k < n; ++k) {
    const double exact = 2.0 - 2.0 * std::cos((k + 1) * pi / (n + 1));
    EXPECT_NEAR(d[k], exact, 1e-12);
  }
}

TEST(Steqr, ResidualAndOrthogonality) {
  for (int type : {10, 11, 12, 13, 15}) {
    solve_and_check(matgen::table3_matrix(type, 60));
  }
}

TEST(Steqr, RandomMatrices) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    matgen::Tridiag m;
    const index_t n = 5 + static_cast<index_t>(rng.uniform_below(60));
    m.d.resize(n);
    m.e.resize(n - 1);
    for (auto& x : m.d) x = rng.uniform_sym();
    for (auto& x : m.e) x = rng.uniform_sym();
    solve_and_check(m);
  }
}

TEST(Steqr, AlreadyDiagonal) {
  std::vector<double> d{3, 1, 2}, e{0.0, 0.0};
  Matrix z(3, 3);
  steqr(CompZ::Identity, 3, d.data(), e.data(), z.data(), 3);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  // Eigenvectors are permuted identity columns.
  EXPECT_DOUBLE_EQ(std::fabs(z(1, 0)), 1.0);
  EXPECT_DOUBLE_EQ(std::fabs(z(2, 1)), 1.0);
  EXPECT_DOUBLE_EQ(std::fabs(z(0, 2)), 1.0);
}

TEST(Steqr, GradedMatrixScaling) {
  // Entries spanning many orders of magnitude exercise the lascl paths.
  const index_t n = 40;
  matgen::Tridiag m;
  m.d.resize(n);
  m.e.resize(n - 1);
  for (index_t i = 0; i < n; ++i) m.d[i] = std::pow(10.0, -12.0 + 24.0 * i / (n - 1));
  for (index_t i = 0; i + 1 < n; ++i) m.e[i] = 0.5 * std::min(m.d[i], m.d[i + 1]);
  solve_and_check(m, 500.0);
}

TEST(Steqr, VectorsModeAccumulates) {
  // CompZ::Vectors applied to a pre-filled orthogonal matrix gives the
  // eigenvectors of the *original* matrix the rotations refer to; with the
  // identity prefill it equals CompZ::Identity.
  const index_t n = 30;
  auto t = matgen::table3_matrix(13, n);
  std::vector<double> d1 = t.d, e1 = t.e, d2 = t.d, e2 = t.e;
  Matrix z1(n, n), z2(n, n);
  steqr(CompZ::Identity, n, d1.data(), e1.data(), z1.data(), n);
  z2.fill(0.0);
  for (index_t i = 0; i < n; ++i) z2(i, i) = 1.0;
  steqr(CompZ::Vectors, n, d2.data(), e2.data(), z2.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(z1(i, j), z2(i, j), 1e-14);
}

TEST(Steqr, ZeroDimension) {
  double z = 0.0;
  steqr<double>(CompZ::Identity, 0, nullptr, nullptr, &z, 1);  // must not crash
}

}  // namespace
}  // namespace dnc::lapack
