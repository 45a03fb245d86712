// Scalar Sturm-count and twisted-factorization entries of every table
// below AVX2, and the references the vector entries are tested against. Compiled with -ffp-contract=off
// (src/blas/CMakeLists.txt): on targets whose baseline ISA has FMA, or in
// builds whose flags enable it, the compiler could otherwise fuse the
// recurrence's multiply and subtract and the vector entries would no
// longer match it.
#include <cmath>

#include "blas/simd/kernels.hpp"
#include "common/real_traits.hpp"

namespace dnc::blas::simd {

template <typename Real>
void sturm_counts_ldl_scalar(index_t n, const Real* d, const Real* l, const Real* ld,
                             const Real* x, index_t m, index_t* counts) {
  // Differential stationary transform of L D L^T - x I, counting negative
  // pivots. NaN-safe handling follows dlaneg: a zero pivot is nudged
  // rather than propagated.
  const Real tiny = real_traits<Real>::safmin();
  for (index_t j = 0; j < m; ++j) {
    const Real xj = x[j];
    index_t count = 0;
    Real s = -xj;
    for (index_t i = 0; i + 1 < n; ++i) {
      Real dplus = d[i] + s;
      if (dplus < Real(0)) ++count;
      if (dplus == Real(0)) dplus = -tiny;
      const Real t = ld[i] / dplus;
      s = t * l[i] * s - xj;
      // Breakdown: restart the recurrence conservatively (dlaneg's
      // "blueprint" fallback uses the plain tridiagonal recurrence).
      if (!std::isfinite(s)) s = -xj;
    }
    if (d[n - 1] + s < Real(0)) ++count;
    counts[j] = count;
  }
}

template <typename Real>
void twisted_ldl_scalar(index_t n, const Real* d, const Real* l, const Real* ld, const Real* dll,
                        const Real* x, index_t m, Real* lplus, Real* umult, index_t ldw,
                        Real* gamma, index_t* twist) {
  // The factorizations of L D L^T - x I, one shift at a time, with ld[i] =
  // l[i] * d[i] and dll[i] = ld[i] * l[i] (d[i] * l[i] * l[i], the same
  // roundings). The two transforms are independent; the progressive one
  // runs first so the twist scan can ride along the stationary one.
  const Real tiny = real_traits<Real>::safmin();
  const auto guard = [&](Real t) {
    if (t == Real(0)) return tiny;
    if (!std::isfinite(t)) return std::copysign(Real(1) / tiny, t);
    return t;
  };
  for (index_t j = 0; j < m; ++j) {
    const Real xj = x[j];
    // Differential progressive transform: U- D- U-^T, bottom-up. p_i waits
    // in lplus' row i until the stationary transform reaches i.
    const Real plast = d[n - 1] - xj;
    Real p = plast;
    for (index_t i = n - 2; i >= 0; --i) {
      const Real dminus = guard(dll[i] + p);
      umult[i * ldw + j] = ld[i] / dminus;
      p = (p * d[i]) / dminus - xj;
      lplus[i * ldw + j] = p;
    }
    // Differential stationary transform: L+ D+ L+^T, top-down, and the
    // twist: the first minimum of |gamma_i| = |s_i + p_i + x|.
    Real s = -xj;
    index_t k = 0;
    Real best = 0, gk = 0;
    for (index_t i = 0; i < n; ++i) {
      const Real g = s + (i + 1 < n ? lplus[i * ldw + j] : plast) + xj;
      if (i == 0 || std::fabs(g) < best) {
        best = std::fabs(g);
        gk = g;
        k = i;
      }
      if (i + 1 == n) break;
      const Real dplus = guard(d[i] + s);
      const Real lp = ld[i] / dplus;
      lplus[i * ldw + j] = lp;
      s = lp * l[i] * s - xj;
    }
    twist[j] = k;
    gamma[j] = gk;
  }
}

template void sturm_counts_ldl_scalar<double>(index_t, const double*, const double*,
                                              const double*, const double*, index_t,
                                              index_t*);
template void sturm_counts_ldl_scalar<float>(index_t, const float*, const float*, const float*,
                                             const float*, index_t, index_t*);
template void twisted_ldl_scalar<double>(index_t, const double*, const double*, const double*,
                                         const double*, const double*, index_t, double*,
                                         double*, index_t, double*, index_t*);
template void twisted_ldl_scalar<float>(index_t, const float*, const float*, const float*,
                                        const float*, const float*, index_t, float*, float*,
                                        index_t, float*, index_t*);

}  // namespace dnc::blas::simd
