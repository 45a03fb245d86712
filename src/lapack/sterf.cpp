#include "lapack/sterf.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "blas/aux.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/laev2.hpp"
#include "lapack/rotations.hpp"

namespace dnc::lapack {
namespace {

// Wilkinson shift from the leading 2x2 of the active block: p is its first
// diagonal entry, q the second and e2 the squared off-diagonal between them.
template <typename Real>
Real wilkinson_shift(Real p, Real q, Real e2) {
  const Real rte = std::sqrt(e2);
  const Real sigma = (q - p) / (Real(2) * rte);
  const Real r = lapy2(sigma, Real(1));
  return p - (rte / (sigma + std::copysign(r, sigma)));
}

}  // namespace

template <typename Real>
void sterf(index_t n, Real* d, Real* e) {
  DNC_REQUIRE(n >= 0, "sterf: n must be >= 0");
  if (n <= 1) return;

  const Real eps = real_traits<Real>::eps();
  const Real eps2 = eps * eps;
  const Real safmin = real_traits<Real>::safmin();
  // dsterf's window: squared off-diagonals of a block scaled into
  // [ssfmin, ssfmax] neither overflow nor underflow below eps2 * d^2.
  const Real ssfmax = std::sqrt(Real(1) / safmin) / Real(3);
  const Real ssfmin = std::sqrt(safmin) / eps2;
  const index_t nmaxit = n * 30;
  index_t jtot = 0;

  // l1 marks the start of the next unreduced block to process.
  index_t l1 = 0;
  while (l1 <= n - 1) {
    if (l1 > 0) e[l1 - 1] = Real(0);
    // The block ends at the first off-diagonal that is negligible against
    // the geometric mean of its two diagonal neighbours.
    index_t m = n - 1;
    for (index_t mm = l1; mm < n - 1; ++mm) {
      const Real tst = std::sqrt(std::fabs(d[mm])) * std::sqrt(std::fabs(d[mm + 1]));
      if (std::fabs(e[mm]) <= tst * eps) {
        e[mm] = Real(0);
        m = mm;
        break;
      }
    }

    index_t l = l1;
    index_t lend = m;
    const index_t lsv = l, lendsv = lend;
    l1 = m + 1;
    if (lend == l) continue;  // 1x1 block: already an eigenvalue

    // Scale the block into the safe window, then square its off-diagonals:
    // the iteration below never forms a rotation, so it needs no sqrt.
    const Real anorm = blas::lanst_max(lend - l + 1, d + l, e + l);
    if (anorm == Real(0)) continue;
    Real scaled_to = Real(0);  // 0 = unscaled, else the target of lascl
    if (anorm > ssfmax) {
      scaled_to = ssfmax;
    } else if (anorm < ssfmin) {
      scaled_to = ssfmin;
    }
    if (scaled_to != Real(0)) {
      blas::lascl(lend - l + 1, 1, anorm, scaled_to, d + l, n);
      blas::lascl(lend - l, 1, anorm, scaled_to, e + l, n);
    }
    for (index_t i = l; i < lend; ++i) e[i] *= e[i];

    // QL from the top unless the bottom diagonal entry is the smaller one,
    // in which case QR from the bottom (graded matrices converge from the
    // small end).
    if (std::fabs(d[lend]) < std::fabs(d[l])) std::swap(l, lend);

    bool failed = false;
    if (lend >= l) {
      // QL iteration: look for a small subdiagonal element going down.
      while (l <= lend) {
        index_t msub = lend;
        for (index_t mm = l; mm < lend; ++mm) {
          if (std::fabs(e[mm]) <= eps2 * std::fabs(d[mm] * d[mm + 1])) {
            msub = mm;
            break;
          }
        }
        if (msub < lend) e[msub] = Real(0);
        Real p = d[l];
        if (msub == l) {
          ++l;  // eigenvalue found
          continue;
        }
        if (msub == l + 1) {
          // 2x2 block: solve directly.
          Real rt1, rt2;
          lae2(d[l], std::sqrt(e[l]), d[l + 1], rt1, rt2);
          d[l] = rt1;
          d[l + 1] = rt2;
          e[l] = Real(0);
          l += 2;
          continue;
        }
        if (jtot == nmaxit) {
          failed = true;
          break;
        }
        ++jtot;
        const Real sigma = wilkinson_shift(p, d[l + 1], e[l]);
        // Inner sweep of the Pal-Walker-Kahan recurrence: c and s are the
        // squared cosine and sine of each rotation.
        Real c = Real(1), s = Real(0);
        Real gamma = d[msub] - sigma;
        p = gamma * gamma;
        for (index_t i = msub - 1; i >= l; --i) {
          const Real bb = e[i];
          const Real r = p + bb;
          if (i != msub - 1) e[i + 1] = s * r;
          const Real oldc = c;
          c = p / r;
          s = bb / r;
          const Real oldgam = gamma;
          const Real alpha = d[i];
          gamma = c * (alpha - sigma) - s * oldgam;
          d[i + 1] = oldgam + (alpha - gamma);
          p = c != Real(0) ? (gamma * gamma) / c : oldc * bb;
        }
        e[l] = s * p;
        d[l] = sigma + gamma;
      }
    } else {
      // QR iteration: look for a small superdiagonal element going up.
      while (l >= lend) {
        index_t msub = lend;
        for (index_t mm = l; mm > lend; --mm) {
          if (std::fabs(e[mm - 1]) <= eps2 * std::fabs(d[mm] * d[mm - 1])) {
            msub = mm;
            break;
          }
        }
        if (msub > lend) e[msub - 1] = Real(0);
        Real p = d[l];
        if (msub == l) {
          --l;  // eigenvalue found
          continue;
        }
        if (msub == l - 1) {
          Real rt1, rt2;
          lae2(d[l], std::sqrt(e[l - 1]), d[l - 1], rt1, rt2);
          d[l] = rt1;
          d[l - 1] = rt2;
          e[l - 1] = Real(0);
          l -= 2;
          continue;
        }
        if (jtot == nmaxit) {
          failed = true;
          break;
        }
        ++jtot;
        const Real sigma = wilkinson_shift(p, d[l - 1], e[l - 1]);
        Real c = Real(1), s = Real(0);
        Real gamma = d[msub] - sigma;
        p = gamma * gamma;
        for (index_t i = msub; i <= l - 1; ++i) {
          const Real bb = e[i];
          const Real r = p + bb;
          if (i != msub) e[i - 1] = s * r;
          const Real oldc = c;
          c = p / r;
          s = bb / r;
          const Real oldgam = gamma;
          const Real alpha = d[i + 1];
          gamma = c * (alpha - sigma) - s * oldgam;
          d[i] = oldgam + (alpha - gamma);
          p = c != Real(0) ? (gamma * gamma) / c : oldc * bb;
        }
        e[l - 1] = s * p;
        d[l] = sigma + gamma;
      }
    }

    // Undo scaling; the squared off-diagonals are spent.
    if (scaled_to != Real(0)) blas::lascl(lendsv - lsv + 1, 1, scaled_to, anorm, d + lsv, n);
    if (failed) {
      // Count the non-converged off-diagonals for the info code.
      index_t bad = 0;
      for (index_t i = 0; i < n - 1; ++i)
        if (e[i] != Real(0)) ++bad;
      throw NumericalError("sterf failed to converge", bad);
    }
  }

  std::sort(d, d + n);
}

template void sterf<double>(index_t, double*, double*);
template void sterf<float>(index_t, float*, float*);

}  // namespace dnc::lapack
