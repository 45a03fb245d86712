// Scalar Sturm-count entry of every table below AVX2, and the reference
// the vector entries are tested against. Compiled with -ffp-contract=off
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

template void sturm_counts_ldl_scalar<double>(index_t, const double*, const double*,
                                              const double*, const double*, index_t,
                                              index_t*);
template void sturm_counts_ldl_scalar<float>(index_t, const float*, const float*, const float*,
                                             const float*, index_t, index_t*);

}  // namespace dnc::blas::simd
