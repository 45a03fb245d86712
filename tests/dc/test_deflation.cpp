#include "dc/deflation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "blas/aux.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace dnc::dc {
namespace {

// Builds a synthetic merge input: two "sons" with orthogonal eigenvector
// blocks (identity here, which makes z = rows of I trivial to reason about)
// and prescribed son eigenvalues.
struct MergeInput {
  Matrix q;
  std::vector<double> d;
  std::vector<double> z;
  std::vector<index_t> perm;
  index_t n1;
};

MergeInput make_input(std::vector<double> d1, std::vector<double> d2,
                      std::vector<double> zvals) {
  MergeInput in;
  in.n1 = static_cast<index_t>(d1.size());
  const index_t m = in.n1 + static_cast<index_t>(d2.size());
  in.q.resize(m, m);
  blas::laset(m, m, 0.0, 1.0, in.q.data(), m);
  in.d = d1;
  in.d.insert(in.d.end(), d2.begin(), d2.end());
  in.z = zvals;
  in.perm.resize(m);
  // sons sorted ascending already in these tests
  std::iota(in.perm.begin(), in.perm.begin() + in.n1, index_t{0});
  std::iota(in.perm.begin() + in.n1, in.perm.end(), index_t{0});
  return in;
}

TEST(Deflation, NoDeflationDistinct) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.5, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 4);
  EXPECT_TRUE(std::is_sorted(res.dlamda.begin(), res.dlamda.end()));
  EXPECT_EQ(res.ctot[3], 0);
}

TEST(Deflation, ZeroZComponentDeflates) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.0, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 3);
  EXPECT_EQ(res.ctot[3], 1);
  EXPECT_EQ(res.d_defl.size(), 1u);
  EXPECT_DOUBLE_EQ(res.d_defl[0], 1.0);  // the deflated eigenvalue
}

TEST(Deflation, TinyRhoDeflatesEverything) {
  auto in = make_input({0.0, 1.0}, {0.5, 2.0}, {0.5, 0.5, 0.5, 0.5});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1e-30, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 0);
  EXPECT_EQ(res.d_defl.size(), 4u);
  EXPECT_TRUE(std::is_sorted(res.d_defl.begin(), res.d_defl.end()));
}

TEST(Deflation, EqualPolesRotated) {
  // Two exactly equal eigenvalues from different sons: a Givens rotation
  // must deflate one of them and mark the survivor type 2.
  auto in = make_input({0.5, 1.0}, {0.5, 2.0}, {0.3, 0.4, 0.3, 0.4});
  auto res = deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                     in.perm.data() + 2);
  EXPECT_EQ(res.k, 3);
  EXPECT_EQ(res.ctot[1], 1);  // one type-2 column
  EXPECT_EQ(res.ctot[3], 1);
  // The survivor's z carries the combined weight sqrt(0.3^2+0.3^2).
  bool found = false;
  for (double w : res.w)
    if (std::fabs(w - std::hypot(0.3, 0.3)) < 1e-14) found = true;
  EXPECT_TRUE(found);
}

TEST(Deflation, RotationPreservesQOrthogonality) {
  auto in = make_input({0.5, 1.0}, {0.5, 1.0}, {0.3, 0.4, 0.3, 0.4});
  deflate(2, 2, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
          in.perm.data() + 2);
  // Q columns stay orthonormal after the rotations.
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) {
      double s = 0;
      for (index_t k = 0; k < 4; ++k) s += in.q(k, i) * in.q(k, j);
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-14);
    }
}

TEST(Deflation, GroupedOrderIsPermutation) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const index_t n1 = 2 + static_cast<index_t>(rng.uniform_below(8));
    const index_t n2 = 2 + static_cast<index_t>(rng.uniform_below(8));
    const index_t m = n1 + n2;
    std::vector<double> d1(n1), d2(n2), z(m);
    for (auto& x : d1) x = rng.uniform_sym();
    for (auto& x : d2) x = rng.uniform_sym();
    std::sort(d1.begin(), d1.end());
    std::sort(d2.begin(), d2.end());
    double nrm = 0;
    for (auto& x : z) {
      x = rng.uniform_sym();
      nrm += x * x;
    }
    for (auto& x : z) x /= std::sqrt(nrm);
    auto in = make_input(d1, d2, z);
    auto res = deflate(n1, n2, in.d.data(), in.z.data(), 0.5 + rng.uniform01(), in.q.view(),
                       in.perm.data(), in.perm.data() + n1);
    // indx is a permutation of [0, m).
    std::vector<index_t> sorted(res.indx);
    std::sort(sorted.begin(), sorted.end());
    for (index_t i = 0; i < m; ++i) EXPECT_EQ(sorted[i], i);
    // counts consistent
    EXPECT_EQ(res.ctot[0] + res.ctot[1] + res.ctot[2], res.k);
    EXPECT_EQ(res.ctot[3], m - res.k);
    // dlamda ascending and strictly increasing
    for (index_t i = 1; i < res.k; ++i) EXPECT_GT(res.dlamda[i], res.dlamda[i - 1]);
    // rank_of maps into [0, k)
    for (index_t g = 0; g < res.k; ++g) {
      EXPECT_GE(res.rank_of[g], 0);
      EXPECT_LT(res.rank_of[g], res.k);
    }
    // non-deflated z values are above the deflation threshold
    for (double w : res.w) EXPECT_GT(std::fabs(w), 0.0);
  }
}

TEST(Deflation, TraceIsPreserved) {
  // Deflation rotations must preserve the trace of D.
  Rng rng(7);
  std::vector<double> d1{0.1, 0.1000000000000001, 0.5};
  std::vector<double> d2{0.0999999999999999, 0.7, 0.9};
  std::vector<double> z(6);
  double nrm = 0;
  for (auto& x : z) {
    x = 0.3 + 0.1 * rng.uniform01();
    nrm += x * x;
  }
  for (auto& x : z) x /= std::sqrt(nrm);
  const double trace_before =
      std::accumulate(d1.begin(), d1.end(), 0.0) + std::accumulate(d2.begin(), d2.end(), 0.0);
  auto in = make_input(d1, d2, z);
  deflate(3, 3, in.d.data(), in.z.data(), 2.0, in.q.view(), in.perm.data(), in.perm.data() + 3);
  const double trace_after = std::accumulate(in.d.begin(), in.d.end(), 0.0);
  EXPECT_NEAR(trace_before, trace_after, 1e-14);
}

TEST(Deflation, HeavyDeflationKeepsInsertionOrder) {
  // A type 1/2-like merge: both sons carry runs of equal eigenvalues
  // (eps, 0.5, 1), and every fifth coupling is negligible. Almost every
  // column deflates, by rotation (which nudges d by an ulp) or by a tiny z.
  // The deflated columns are listed ascending by d, ties in deflation order;
  // indx and d_defl below were produced by the former sorted-insertion
  // implementation and must not change.
  const double tiny = 0x1p-52;
  const std::vector<double> d1{tiny, tiny, tiny, tiny, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0};
  const std::vector<double> d2{tiny, tiny, tiny, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<double> z(24);
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = (i % 5 == 2) ? 1e-19 : 0.1 + 0.01 * double(i);
  auto in = make_input(d1, d2, z);
  const auto res = deflate(12, 12, in.d.data(), in.z.data(), 1.0, in.q.view(), in.perm.data(),
                           in.perm.data() + 12);
  ASSERT_EQ(res.k, 3);
  const std::vector<index_t> indx{14, 18, 23, 0,  2,  12, 13, 1, 3, 5,  15, 7,
                                  6,  17, 16, 4,  20, 9,  8,  11, 19, 22, 10, 21};
  EXPECT_EQ(res.indx, indx);
  const double up = 0x1.0000000000001p0, dn = 0x1.fffffffffffffp-1;  // 1 +- 1 ulp
  const std::vector<double> d_defl{tiny,       tiny,       tiny,     tiny,     tiny * up,
                                   tiny * up,  0.5 * dn,   0.5 * dn, 0.5,      0.5,
                                   0.5,        0.5,        0.5 * up, 0x1.ffffffffffffep-1,
                                   dn,         1.0,        1.0,      1.0,      1.0,
                                   up,         up};
  EXPECT_EQ(res.d_defl, d_defl);
}

}  // namespace
}  // namespace dnc::dc
