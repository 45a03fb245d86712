#include "lapack/tridiag_lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace dnc::lapack {
namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Every lane of the batched LU must give bitwise what TridiagLU gives for
// its shift alone: the factors row by row, and the solution of a
// right-hand side of its own. The shifts lie inside the spectrum, where
// both pivot branches are taken; with e[0] = 0 the shift d[0] makes the
// first pivot exactly zero, and the clamp replaces it with safmin / eps.
TEST(TridiagLUBatch, LanesMatchTheScalarLUBitwise) {
  constexpr int kLanes = TridiagLUBatch<double>::kLanes;
  const double tiny = real_traits<double>::safmin() / real_traits<double>::eps();
  for (const index_t n : {1, 2, 3, 17, 1000}) {
    for (const bool split : {false, true}) {
      if (split && n < 2) continue;
      Rng rng(static_cast<std::uint64_t>(n) * 2 + split);
      std::vector<double> d(n), e(n > 1 ? n - 1 : 0);
      for (double& x : d) x = rng.uniform_sym();
      for (double& x : e) x = rng.uniform_sym();
      if (split) e[0] = 0.0;
      std::vector<double> shift(kLanes);
      for (double& x : shift) x = 1.5 * rng.uniform_sym();
      shift[0] = d[0];
      std::vector<double> rhs(static_cast<std::size_t>(n * kLanes));
      for (double& x : rhs) x = rng.uniform_sym();

      for (int lanes = 1; lanes <= kLanes; ++lanes) {
        SCOPED_TRACE(testing::Message() << "n " << n << ", e[0] = 0: " << split << ", lanes "
                                        << lanes);
        TridiagLUBatch<double> batch(n);
        batch.factor(n, d.data(), e.data(), shift.data(), lanes);
        std::vector<double> x = rhs;
        batch.solve(n, x.data(), lanes);
        bool swaps[2] = {false, false};
        bool clamped = false;
        for (int l = 0; l < lanes; ++l) {
          TridiagLU<double> lu(n);
          lu.factor(n, d.data(), e.data(), shift[l]);
          std::vector<double> y(n);
          for (index_t i = 0; i < n; ++i) y[i] = rhs[i * kLanes + l];
          lu.solve(n, y.data());
          for (index_t i = 0; i < n; ++i) {
            const index_t k = i * kLanes + l;
            ASSERT_TRUE(same_bits(batch.u0[k], lu.u0[i])) << "u0, lane " << l << " row " << i;
            ASSERT_TRUE(same_bits(x[k], y[i])) << "solution, lane " << l << " row " << i;
            clamped = clamped || std::fabs(lu.u0[i]) == tiny;
            if (i + 1 == n) continue;  // the last row has no multiplier or upper entries
            ASSERT_TRUE(same_bits(batch.ml[k], lu.ml[i])) << "ml, lane " << l << " row " << i;
            ASSERT_TRUE(same_bits(batch.u1[k], lu.u1[i])) << "u1, lane " << l << " row " << i;
            ASSERT_TRUE(same_bits(batch.u2[k], lu.u2[i])) << "u2, lane " << l << " row " << i;
            ASSERT_EQ(batch.swapped[k] != 0.0, lu.swapped[i] != 0) << "lane " << l << " row " << i;
            swaps[lu.swapped[i] != 0] = true;
          }
        }
        // The cases reach what they are meant to: the clamp where the first
        // pivot is zero (and for n = 1, whose only pivot is d[0] - d[0]),
        // and both pivot branches at every order with rows to eliminate.
        if (split || n == 1) {
          EXPECT_TRUE(clamped);
        }
        if (n >= 17) {
          EXPECT_TRUE(swaps[0] && swaps[1]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dnc::lapack
