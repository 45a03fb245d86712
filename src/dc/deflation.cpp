#include "dc/deflation.hpp"

#include <algorithm>
#include <cmath>

#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/rotations.hpp"

namespace dnc::dc {

template <typename Real>
DeflationResultT<Real> deflate(index_t n1, index_t n2, Real* d, Real* z, Real rho_in,
                               MatrixViewT<Real> q, const index_t* perm1,
                               const index_t* perm2) {
  const index_t m = n1 + n2;
  DNC_REQUIRE(n1 >= 1 && n2 >= 1, "deflate: sons must be non-empty");
  DNC_REQUIRE(q.rows == m && q.cols == m, "deflate: bad Q block");
  DeflationResultT<Real> res;
  res.m = m;
  res.n1 = n1;
  res.rho = rho_in;

  // Merge the two sorted son spectra into one ascending physical-index list.
  std::vector<index_t> idx(m);
  {
    index_t a = 0, b = 0, t = 0;
    while (a < n1 && b < n2) {
      const index_t pa = perm1[a];
      const index_t pb = n1 + perm2[b];
      if (d[pa] <= d[pb]) {
        idx[t++] = pa;
        ++a;
      } else {
        idx[t++] = pb;
        ++b;
      }
    }
    while (a < n1) idx[t++] = perm1[a++];
    while (b < n2) idx[t++] = n1 + perm2[b++];
  }

  // Deflation tolerance, as in dlaed2.
  Real dmax = 0, zmax = 0;
  for (index_t i = 0; i < m; ++i) {
    dmax = std::max(dmax, std::fabs(d[i]));
    zmax = std::max(zmax, std::fabs(z[i]));
  }
  const Real tol = Real(8) * real_traits<Real>::eps() * std::max(dmax, zmax);

  // Column types: 1 for son-1 columns, 3 for son-2 columns initially.
  std::vector<int> coltyp(m);
  for (index_t j = 0; j < m; ++j) coltyp[j] = j < n1 ? 1 : 3;

  std::vector<index_t> nondefl;  // physical cols, ascending pole order
  std::vector<index_t> defl;     // physical cols; sorted by d below
  nondefl.reserve(m);
  defl.reserve(m);

  if (res.rho * zmax <= tol) {
    // Everything deflates (dlaed2's early exit): the merged system is
    // already diagonal to working precision.
    for (index_t t = 0; t < m; ++t) {
      coltyp[idx[t]] = 4;
      defl.push_back(idx[t]);  // idx is ascending and d is untouched
    }
  } else {
    index_t held = -1;  // the dlaed2 "PJ" candidate awaiting classification
    for (index_t t = 0; t < m; ++t) {
      const index_t j = idx[t];
      if (res.rho * std::fabs(z[j]) <= tol) {
        // Negligible coupling: eigenpair of the block-diagonal part
        // survives unchanged.
        z[j] = 0;
        coltyp[j] = 4;
        defl.push_back(j);
        continue;
      }
      if (held < 0) {
        held = j;
        continue;
      }
      // Try to rotate `held` into `j` (poles nearly equal).
      Real s = z[held];
      Real c = z[j];
      const Real tau = lapack::lapy2(c, s);
      const Real gap = d[j] - d[held];
      c /= tau;
      s = -s / tau;
      if (std::fabs(gap * c * s) <= tol) {
        // Deflate `held`: the rotated pair has one zero z component.
        z[j] = tau;
        z[held] = 0;
        if (coltyp[j] != coltyp[held]) coltyp[j] = 2;
        coltyp[held] = 4;
        blas::rot(m, q.col(held), q.col(j), c, s);
        const Real dh = d[held], dj = d[j];
        d[held] = dh * c * c + dj * s * s;
        d[j] = dh * s * s + dj * c * c;
        defl.push_back(held);
        held = j;
      } else {
        nondefl.push_back(held);
        held = j;
      }
    }
    if (held >= 0) nondefl.push_back(held);
    // List the deflated set ascending by d (rotations changed d after the
    // merge order was fixed), ties in deflation order. A deflated column's
    // d is final once it is appended, so one O(m log m) stable sort gives
    // the same order as inserting each column at its sorted position.
    std::stable_sort(defl.begin(), defl.end(),
                     [&](index_t a, index_t b) { return d[a] < d[b]; });
  }

  res.k = static_cast<index_t>(nondefl.size());
  res.dlamda.resize(res.k);
  res.w.resize(res.k);
  for (index_t r = 0; r < res.k; ++r) {
    res.dlamda[r] = d[nondefl[r]];
    res.w[r] = z[nondefl[r]];
  }
  res.d_defl.resize(m - res.k);
  for (index_t t = 0; t < m - res.k; ++t) res.d_defl[t] = d[defl[t]];

  // Grouped order: types 1, 2, 3 (preserving ascending pole order within
  // each group), then the deflated columns.
  for (index_t r = 0; r < res.k; ++r) ++res.ctot[coltyp[nondefl[r]] - 1];
  res.ctot[3] = m - res.k;
  index_t psm[4];
  psm[0] = 0;
  psm[1] = res.ctot[0];
  psm[2] = psm[1] + res.ctot[1];
  psm[3] = res.k;
  res.indx.resize(m);
  res.rank_of.assign(res.k, 0);
  for (index_t r = 0; r < res.k; ++r) {
    const index_t j = nondefl[r];
    const index_t g = psm[coltyp[j] - 1]++;
    res.indx[g] = j;
    res.rank_of[g] = r;
  }
  for (index_t t = 0; t < m - res.k; ++t) res.indx[res.k + t] = defl[t];
  return res;
}

template DeflationResultT<double> deflate<double>(index_t, index_t, double*, double*, double,
                                                  MatrixViewT<double>, const index_t*,
                                                  const index_t*);
template DeflationResultT<float> deflate<float>(index_t, index_t, float*, float*, float,
                                                MatrixViewT<float>, const index_t*,
                                                const index_t*);

}  // namespace dnc::dc
