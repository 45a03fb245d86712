// Partially-pivoted LU of a shifted tridiagonal T - lambda I (the dgttrf
// layout): the kernel of both inverse-iteration codes. TridiagLU factors
// and solves one shift, for stein_vector. TridiagLUBatch runs the same
// recurrences for up to eight shifts at once, for the Rayleigh-quotient
// sweep of refine_eigenpairs: each step of one shift waits on a division,
// so one shift runs at division latency, while eight independent chains
// interleaved row by row overlap and run at division throughput. Every
// lane does exactly TridiagLU's operations in TridiagLU's order, so its
// factors and solution are bitwise TridiagLU's.
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

/// TridiagLU for `lanes` <= kLanes shifts of the same tridiagonal. Entry
/// (i, l), row i of lane l, of the factors and of the right-hand sides is
/// element i * kLanes + l. Lane l of factor() + solve() gives bitwise what
/// TridiagLU::factor + solve give for its shift: the pivot choice and the
/// tiny-pivot clamp are selects on the same comparisons, and the
/// arithmetic is the same operations in the same order.
template <typename Real>
struct TridiagLUBatch {
  static constexpr int kLanes = 8;

  /// As TridiagLU's, but a swap flag is Real(1) or Real(0): the solve then
  /// selects on a compare of its own width, without a branch.
  std::vector<Real> ml, u0, u1, u2, swapped;

  explicit TridiagLUBatch(index_t n)
      : ml(n * kLanes), u0(n * kLanes), u1(n * kLanes), u2(n * kLanes), swapped(n * kLanes) {}

  /// Factors T - lambda[l] I for l < lanes, T = (d, e) of order n >= 1.
  void factor(index_t n, const Real* d, const Real* e, const Real* lambda, int lanes) {
    const Real tiny = real_traits<Real>::safmin() / real_traits<Real>::eps();
    const auto clamp = [tiny](Real p) {
      return std::fabs(p) < tiny ? std::copysign(tiny, p == Real(0) ? Real(1) : p) : p;
    };
    Real *pml = ml.data(), *pu0 = u0.data(), *pu1 = u1.data(), *pu2 = u2.data();
    Real* psw = swapped.data();
    // TridiagLU's carried a and c, one per lane.
    Real a[kLanes] = {}, c[kLanes] = {};
    for (int l = 0; l < lanes; ++l) {
      a[l] = d[0] - lambda[l];
      c[l] = n > 1 ? e[0] : Real(0);
    }
    for (index_t i = 0; i + 1 < n; ++i) {
      const Real b = e[i];
      const Real cnext = (i + 2 < n) ? e[i + 1] : Real(0);
      const index_t r = i * kLanes;
      for (int l = 0; l < lanes; ++l) {
        const Real anext = d[i + 1] - lambda[l];
        // Unswapped: ml = b / piv, then a = anext - ml c, c = cnext.
        // Swapped:   ml = a / b,   then a = c - ml anext, c = -ml cnext.
        const bool swap = !(std::fabs(a[l]) >= std::fabs(b));
        const Real den = swap ? b : clamp(a[l]);
        const Real m = (swap ? a[l] : b) / den;
        psw[r + l] = swap ? Real(1) : Real(0);
        pu0[r + l] = den;
        pml[r + l] = m;
        pu1[r + l] = swap ? anext : c[l];
        pu2[r + l] = swap ? cnext : Real(0);
        a[l] = (swap ? c[l] : anext) - m * (swap ? anext : c[l]);
        c[l] = swap ? -m * cnext : cnext;
      }
    }
    for (int l = 0; l < lanes; ++l) pu0[(n - 1) * kLanes + l] = clamp(a[l]);
  }

  /// Overwrites the first `lanes` lanes of x (n rows of kLanes) with
  /// (T - lambda[l] I)^{-1} x, lane by lane. x must not overlap the factors.
  void solve(index_t n, Real* __restrict x, int lanes) const {
    // x cannot alias the factors, so its stores need not reload them.
    const Real *__restrict pml = ml.data(), *__restrict pu0 = u0.data();
    const Real *__restrict pu1 = u1.data(), *__restrict pu2 = u2.data();
    const Real* __restrict psw = swapped.data();
    constexpr index_t L = kLanes;
    for (index_t i = 0; i + 1 < n; ++i) {
      const index_t r = i * L;
      for (int l = 0; l < lanes; ++l) {
        const Real xi = x[r + l], xn = x[r + L + l];
        const bool swap = psw[r + l] != Real(0);
        const Real lo = swap ? xn : xi, hi = swap ? xi : xn;
        x[r + l] = lo;
        x[r + L + l] = hi - pml[r + l] * lo;
      }
    }
    // Back substitution; the last two rows have fewer upper entries.
    index_t r = (n - 1) * L;
    for (int l = 0; l < lanes; ++l) x[r + l] = x[r + l] / pu0[r + l];
    if (n < 2) return;
    r -= L;
    for (int l = 0; l < lanes; ++l) x[r + l] = (x[r + l] - pu1[r + l] * x[r + L + l]) / pu0[r + l];
    for (index_t i = n - 3; i >= 0; --i) {
      r = i * L;
      for (int l = 0; l < lanes; ++l) {
        Real s = x[r + l];
        s -= pu1[r + l] * x[r + L + l];
        s -= pu2[r + l] * x[r + 2 * L + l];
        x[r + l] = s / pu0[r + l];
      }
    }
  }
};

}  // namespace dnc::lapack
