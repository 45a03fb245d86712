// Partially-pivoted LU of a shifted tridiagonal T - lambda I (the dgttrf
// layout): the kernel of both inverse-iteration codes, stein_vector and
// the refinement sweep of refine_eigenpairs.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/real_traits.hpp"

namespace dnc::lapack {

/// Lower multipliers ml, main diagonal u0, first/second upper diagonals
/// u1/u2, per-plane swap flags. Sized once for order n; factor() overwrites
/// every entry solve() reads, so one object serves any number of shifts.
template <typename Real>
struct TridiagLU {
  std::vector<Real> ml, u0, u1, u2;
  std::vector<char> swapped;

  explicit TridiagLU(index_t n) : ml(n), u0(n), u1(n), u2(n), swapped(n) {}

  /// Factors T - lambda I for the tridiagonal (d, e) of order n >= 1.
  /// Pivots smaller than safmin / eps are replaced by that value (sign
  /// kept).
  void factor(index_t n, const Real* d, const Real* e, Real lambda) {
    const Real tiny = real_traits<Real>::safmin() / real_traits<Real>::eps();
    // Elimination touches only the current row and the next, so the
    // working diagonal a and upper entry c of the active row are carried
    // as scalars; the subdiagonal b is e itself (never updated).
    Real a = d[0] - lambda;
    Real c = n > 1 ? e[0] : Real(0);
    for (index_t i = 0; i < n; ++i) {
      u0[i] = a;
      if (i + 1 < n) {
        const Real b = e[i];
        const Real anext = d[i + 1] - lambda;
        const Real cnext = (i + 2 < n) ? e[i + 1] : Real(0);
        if (std::fabs(a) >= std::fabs(b)) {
          Real piv = a;
          if (std::fabs(piv) < tiny) piv = std::copysign(tiny, piv == Real(0) ? Real(1) : piv);
          swapped[i] = 0;
          u0[i] = piv;
          ml[i] = b / piv;
          u1[i] = c;
          u2[i] = Real(0);
          a = anext - ml[i] * c;
          c = cnext;
        } else {
          // Swap rows i and i+1 for stability.
          swapped[i] = 1;
          const Real piv = b;
          u0[i] = piv;
          ml[i] = a / piv;
          u1[i] = anext;
          u2[i] = cnext;
          a = c - ml[i] * anext;
          c = -ml[i] * cnext;
        }
      } else if (std::fabs(u0[i]) < tiny) {
        u0[i] = std::copysign(tiny, u0[i] == Real(0) ? Real(1) : u0[i]);
      }
    }
  }

  /// Overwrites x (length n) with (T - lambda I)^{-1} x.
  void solve(index_t n, Real* x) const {
    // Forward: apply L^{-1} with the recorded pivoting.
    for (index_t i = 0; i + 1 < n; ++i) {
      if (swapped[i]) std::swap(x[i], x[i + 1]);
      x[i + 1] -= ml[i] * x[i];
    }
    // Backward: U x = y.
    for (index_t i = n - 1; i >= 0; --i) {
      Real s = x[i];
      if (i + 1 < n) s -= u1[i] * x[i + 1];
      if (i + 2 < n) s -= u2[i] * x[i + 2];
      x[i] = s / u0[i];
    }
  }
};

}  // namespace dnc::lapack
