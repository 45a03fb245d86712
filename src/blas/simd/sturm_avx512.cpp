// AVX-512 Sturm-count and twisted-factorization entries: 2 x 8 fp64 or
// 2 x 16 fp32 shifts per pass, the sturm_body.hpp loops over the
// vec_avx512.hpp interfaces. Compiled with -mavx512f -ffp-contract=off
// (set per-file in src/blas/CMakeLists.txt), apart from kernels_avx512.cpp
// so the GEMM microkernels keep their flags. Every output equals the
// scalar table's bit for bit.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX512) && defined(__AVX512F__)

#include "blas/simd/sturm_body.hpp"
#include "blas/simd/vec_avx512.hpp"

namespace dnc::blas::simd {

template <typename Real>
void sturm_counts_ldl_avx512(index_t n, const Real* d, const Real* l, const Real* ld,
                             const Real* x, index_t m, index_t* counts) {
  sturm_counts_vec<Zmm<Real>>(n, d, l, ld, x, m, counts);
}

template <typename Real>
void twisted_ldl_avx512(index_t n, const Real* d, const Real* l, const Real* ld,
                        const Real* dll, const Real* x, index_t m, Real* lplus, Real* umult,
                        index_t ldw, Real* gamma, index_t* twist) {
  twisted_ldl_vec<Zmm<Real>>(n, d, l, ld, dll, x, m, lplus, umult, ldw, gamma, twist);
}

template void sturm_counts_ldl_avx512<double>(index_t, const double*, const double*,
                                              const double*, const double*, index_t,
                                              index_t*);
template void sturm_counts_ldl_avx512<float>(index_t, const float*, const float*,
                                             const float*, const float*, index_t, index_t*);
template void twisted_ldl_avx512<double>(index_t, const double*, const double*,
                                          const double*, const double*, const double*, index_t,
                                          double*, double*, index_t, double*, index_t*);
template void twisted_ldl_avx512<float>(index_t, const float*, const float*, const float*,
                                         const float*, const float*, index_t, float*, float*,
                                         index_t, float*, index_t*);

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX512 && __AVX512F__
