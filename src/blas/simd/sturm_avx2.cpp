// AVX2 Sturm-count and twisted-factorization entries: 2 x 4 fp64 or
// 2 x 8 fp32 shifts per pass, the sturm_body.hpp loops over the
// vec_avx2.hpp interfaces. Compiled with -mavx2 -ffp-contract=off (set
// per-file in src/blas/CMakeLists.txt), apart from the AVX2 tables in
// kernels_avx2.cpp so those keep their own flags. Every output equals the
// scalar table's bit for bit.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX2) && defined(__AVX2__)

#include "blas/simd/sturm_body.hpp"
#include "blas/simd/vec_avx2.hpp"

namespace dnc::blas::simd {

template <typename Real>
void sturm_counts_ldl_avx2(index_t n, const Real* d, const Real* l, const Real* ld,
                           const Real* x, index_t m, index_t* counts) {
  sturm_counts_vec<Ymm<Real>>(n, d, l, ld, x, m, counts);
}

template <typename Real>
void twisted_ldl_avx2(index_t n, const Real* d, const Real* l, const Real* ld,
                      const Real* dll, const Real* x, index_t m, Real* lplus, Real* umult,
                      index_t ldw, Real* gamma, index_t* twist) {
  twisted_ldl_vec<Ymm<Real>>(n, d, l, ld, dll, x, m, lplus, umult, ldw, gamma, twist);
}

template void sturm_counts_ldl_avx2<double>(index_t, const double*, const double*,
                                            const double*, const double*, index_t, index_t*);
template void sturm_counts_ldl_avx2<float>(index_t, const float*, const float*, const float*,
                                           const float*, index_t, index_t*);
template void twisted_ldl_avx2<double>(index_t, const double*, const double*, const double*,
                                        const double*, const double*, index_t, double*, double*,
                                        index_t, double*, index_t*);
template void twisted_ldl_avx2<float>(index_t, const float*, const float*, const float*,
                                       const float*, const float*, index_t, float*, float*,
                                       index_t, float*, index_t*);

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX2 && __AVX2__
