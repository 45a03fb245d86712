#include "lapack/steqr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/laev2.hpp"
#include "lapack/rotations.hpp"

namespace dnc::lapack {
namespace {

template <typename Real>
Real sign_of(Real a, Real b) {
  return b >= Real(0) ? std::fabs(a) : -std::fabs(a);
}

// Applies the stored rotation sequence to columns [jl, jm] of Z, matching
// dlasr('R','V',direct). For direct='B' rotations are applied from the last
// plane to the first; for 'F' the other way around. cwork/swork are indexed
// by the left column of each plane.
template <typename Real>
void apply_plane_rotations(Real* z, index_t ldz, index_t nrows, index_t jl, index_t jm,
                           const Real* cwork, const Real* swork, bool backward) {
  if (jm <= jl) return;
  if (backward) {
    for (index_t j = jm - 1; j >= jl; --j) {
      const Real c = cwork[j];
      const Real s = swork[j];
      Real* colj = z + j * ldz;
      Real* colj1 = z + (j + 1) * ldz;
      for (index_t i = 0; i < nrows; ++i) {
        const Real temp = colj1[i];
        colj1[i] = c * temp - s * colj[i];
        colj[i] = s * temp + c * colj[i];
      }
    }
  } else {
    for (index_t j = jl; j < jm; ++j) {
      const Real c = cwork[j];
      const Real s = swork[j];
      Real* colj = z + j * ldz;
      Real* colj1 = z + (j + 1) * ldz;
      for (index_t i = 0; i < nrows; ++i) {
        const Real temp = colj1[i];
        colj1[i] = c * temp - s * colj[i];
        colj[i] = s * temp + c * colj[i];
      }
    }
  }
}

}  // namespace

template <typename Real>
void steqr(CompZ compz, index_t n, Real* d, Real* e, Real* z, index_t ldz) {
  DNC_REQUIRE(n >= 0, "steqr: n must be >= 0");
  DNC_REQUIRE(z != nullptr && ldz >= std::max<index_t>(1, n), "steqr: bad Z");
  if (n == 0) return;
  if (compz == CompZ::Identity) blas::laset(n, n, Real(0), Real(1), z, ldz);
  if (n == 1) return;

  const Real eps = real_traits<Real>::eps();
  const Real eps2 = eps * eps;
  const Real safmin = real_traits<Real>::safmin();
  const auto bounds = steqr_scale_bounds_t<Real>();
  const index_t nmaxit = n * 30;
  index_t jtot = 0;

  std::vector<Real> cwork(n), swork(n);

  // l1 marks the start of the next unreduced block to process.
  index_t l1 = 0;

  for (;;) {
    if (l1 > n - 1) break;
    if (l1 > 0) e[l1 - 1] = Real(0);
    // Find the end of the unreduced block starting at l1: the first m with a
    // negligible off-diagonal splits the problem.
    index_t m = n - 1;
    for (index_t mm = l1; mm < n - 1; ++mm) {
      const Real tst = std::fabs(e[mm]);
      if (tst == Real(0)) {
        m = mm;
        break;
      }
      if (tst <= (std::sqrt(std::fabs(d[mm])) * std::sqrt(std::fabs(d[mm + 1]))) * eps) {
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

    // Scale the submatrix to a safe range.
    const Real anorm = blas::lanst_max(lend - l + 1, d + l, e + l);
    Real scale_applied = Real(0);  // 0 = none, else the cfrom used
    if (anorm == Real(0)) continue;
    if (anorm > bounds.ssfmax) {
      scale_applied = anorm;
      blas::lascl(lend - l + 1, 1, anorm, bounds.ssfmax, d + l, n);
      blas::lascl(lend - l, 1, anorm, bounds.ssfmax, e + l, n);
    } else if (anorm < bounds.ssfmin) {
      scale_applied = anorm;
      blas::lascl(lend - l + 1, 1, anorm, bounds.ssfmin, d + l, n);
      blas::lascl(lend - l, 1, anorm, bounds.ssfmin, e + l, n);
    }

    // Choose between QL and QR: iterate from the end with the smaller
    // diagonal entry for graded matrices.
    if (std::fabs(d[lend]) < std::fabs(d[l])) {
      std::swap(lend, l);
    }

    bool failed = false;
    if (lend > l) {
      // QL iteration: look for small subdiagonal elements going up.
      for (;;) {
        index_t msub = lend;
        if (l != lend) {
          msub = lend;
          for (index_t mm = l; mm < lend; ++mm) {
            const Real tst = std::fabs(e[mm]) * std::fabs(e[mm]);
            if (tst <= (eps2 * std::fabs(d[mm])) * std::fabs(d[mm + 1]) + safmin) {
              msub = mm;
              break;
            }
          }
        }
        if (msub < lend) e[msub] = Real(0);
        Real p = d[l];
        if (msub == l) {
          // Eigenvalue found.
          d[l] = p;
          ++l;
          if (l > lend) break;
          continue;
        }
        if (msub == l + 1) {
          // 2x2 block: solve directly.
          Real rt1, rt2, c, s;
          laev2(d[l], e[l], d[l + 1], rt1, rt2, c, s);
          cwork[l] = c;
          swork[l] = s;
          apply_plane_rotations(z, ldz, n, l, l + 1, cwork.data(), swork.data(), true);
          d[l] = rt1;
          d[l + 1] = rt2;
          e[l] = Real(0);
          l += 2;
          if (l > lend) break;
          continue;
        }
        if (jtot == nmaxit) {
          failed = true;
          break;
        }
        ++jtot;
        // Form Wilkinson shift.
        Real g = (d[l + 1] - p) / (Real(2) * e[l]);
        Real r = lapy2(g, Real(1));
        g = d[msub] - p + (e[l] / (g + sign_of(r, g)));
        Real s = Real(1), c = Real(1);
        p = Real(0);
        // Inner QL sweep.
        for (index_t i = msub - 1; i >= l; --i) {
          Real f = s * e[i];
          const Real b = c * e[i];
          lartg(g, f, c, s, r);
          if (i != msub - 1) e[i + 1] = r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + Real(2) * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          cwork[i] = c;
          swork[i] = -s;
        }
        apply_plane_rotations(z, ldz, n, l, msub, cwork.data(), swork.data(), true);
        d[l] -= p;
        e[l] = g;
      }
    } else {
      // QR iteration: look for small superdiagonal elements going down.
      for (;;) {
        index_t msub = lend;
        if (l != lend) {
          msub = lend;
          for (index_t mm = l; mm > lend; --mm) {
            const Real tst = std::fabs(e[mm - 1]) * std::fabs(e[mm - 1]);
            if (tst <= (eps2 * std::fabs(d[mm])) * std::fabs(d[mm - 1]) + safmin) {
              msub = mm;
              break;
            }
          }
        }
        if (msub > lend) e[msub - 1] = Real(0);
        Real p = d[l];
        if (msub == l) {
          d[l] = p;
          --l;
          if (l < lend) break;
          continue;
        }
        if (msub == l - 1) {
          Real rt1, rt2, c, s;
          laev2(d[l - 1], e[l - 1], d[l], rt1, rt2, c, s);
          // dsteqr stores (c, s) then applies a single forward rotation on
          // columns (l-1, l).
          cwork[l - 1] = c;
          swork[l - 1] = s;
          apply_plane_rotations(z, ldz, n, l - 1, l, cwork.data(), swork.data(), false);
          d[l - 1] = rt1;
          d[l] = rt2;
          e[l - 1] = Real(0);
          l -= 2;
          if (l < lend) break;
          continue;
        }
        if (jtot == nmaxit) {
          failed = true;
          break;
        }
        ++jtot;
        Real g = (d[l - 1] - p) / (Real(2) * e[l - 1]);
        Real r = lapy2(g, Real(1));
        g = d[msub] - p + (e[l - 1] / (g + sign_of(r, g)));
        Real s = Real(1), c = Real(1);
        p = Real(0);
        for (index_t i = msub; i <= l - 1; ++i) {
          Real f = s * e[i];
          const Real b = c * e[i];
          lartg(g, f, c, s, r);
          if (i != msub) e[i - 1] = r;
          g = d[i] - p;
          r = (d[i + 1] - g) * s + Real(2) * c * b;
          p = s * r;
          d[i] = g + p;
          g = c * r - b;
          cwork[i] = c;
          swork[i] = s;
        }
        apply_plane_rotations(z, ldz, n, msub, l, cwork.data(), swork.data(), false);
        d[l] -= p;
        e[l - 1] = g;
      }
    }

    // Undo scaling.
    if (scale_applied != Real(0)) {
      const Real target = (scale_applied > bounds.ssfmax) ? bounds.ssfmax : bounds.ssfmin;
      blas::lascl(lendsv - lsv + 1, 1, target, scale_applied, d + lsv, n);
      blas::lascl(lendsv - lsv, 1, target, scale_applied, e + lsv, n);
    }
    if (failed) {
      // Count the number of non-converged off-diagonals for the info code.
      index_t bad = 0;
      for (index_t i = 0; i < n - 1; ++i)
        if (e[i] != Real(0)) ++bad;
      throw NumericalError("steqr failed to converge", bad);
    }
  }

  // Sort eigenpairs in ascending order: selection sort, to minimise
  // eigenvector column swaps, as in dsteqr.
  for (index_t ii = 1; ii < n; ++ii) {
    const index_t i = ii - 1;
    index_t k = i;
    Real p = d[i];
    for (index_t j = ii; j < n; ++j) {
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      blas::swap(n, z + i * ldz, z + k * ldz);
    }
  }
}

template void steqr<double>(CompZ, index_t, double*, double*, double*, index_t);
template void steqr<float>(CompZ, index_t, float*, float*, float*, index_t);

}  // namespace dnc::lapack
