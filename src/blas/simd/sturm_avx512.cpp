// AVX-512 Sturm-count entries: 2 x 8 fp64 or 2 x 16 fp32 shifts per pass.
// Compiled with -mavx512f -ffp-contract=off (set per-file in
// src/blas/CMakeLists.txt), apart from kernels_avx512.cpp so the GEMM
// microkernels keep their flags. Only AVX-512F instructions are used (no
// DQ/VL): comparisons write mask registers, and the counts are masked
// integer adds. Counts equal the scalar table's exactly.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX512) && defined(__AVX512F__)

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <type_traits>

#include "blas/simd/sturm_body.hpp"

namespace dnc::blas::simd {
namespace {

struct Avx512F64 {
  using Real = double;
  using Reg = __m512d;
  using Cnt = __m512i;
  static constexpr index_t kLanes = 8;
  static Reg set1(double v) { return _mm512_set1_pd(v); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_pd(a, b); }
  static Reg neg(Reg a) {
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a), _mm512_set1_epi64(std::numeric_limits<std::int64_t>::min())));
  }
  static __mmask8 lt(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static __mmask8 eq(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static __mmask8 finite(Reg a) {
    return _mm512_cmp_pd_mask(_mm512_abs_pd(a),
                              _mm512_set1_pd(std::numeric_limits<double>::infinity()),
                              _CMP_LT_OQ);
  }
  static Reg select(__mmask8 mask, Reg t, Reg f) { return _mm512_mask_blend_pd(mask, f, t); }
  static Cnt zero_cnt() { return _mm512_setzero_si512(); }
  static Cnt inc(Cnt c, __mmask8 mask) {
    return _mm512_mask_add_epi64(c, mask, c, _mm512_set1_epi64(1));
  }
  static void store(Cnt c, index_t* out) {
    alignas(64) std::int64_t t[kLanes];
    _mm512_store_si512(t, c);
    for (index_t j = 0; j < kLanes; ++j) out[j] = static_cast<index_t>(t[j]);
  }
};

struct Avx512F32 {
  using Real = float;
  using Reg = __m512;
  using Cnt = __m512i;
  static constexpr index_t kLanes = 16;
  static Reg set1(float v) { return _mm512_set1_ps(v); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_ps(a, b); }
  static Reg neg(Reg a) {
    return _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(a), _mm512_set1_epi32(std::numeric_limits<std::int32_t>::min())));
  }
  static __mmask16 lt(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static __mmask16 eq(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_EQ_OQ); }
  static __mmask16 finite(Reg a) {
    return _mm512_cmp_ps_mask(_mm512_abs_ps(a),
                              _mm512_set1_ps(std::numeric_limits<float>::infinity()),
                              _CMP_LT_OQ);
  }
  static Reg select(__mmask16 mask, Reg t, Reg f) { return _mm512_mask_blend_ps(mask, f, t); }
  static Cnt zero_cnt() { return _mm512_setzero_si512(); }
  static Cnt inc(Cnt c, __mmask16 mask) {
    return _mm512_mask_add_epi32(c, mask, c, _mm512_set1_epi32(1));
  }
  static void store(Cnt c, index_t* out) {
    alignas(64) std::int32_t t[kLanes];
    _mm512_store_si512(t, c);
    for (index_t j = 0; j < kLanes; ++j) out[j] = static_cast<index_t>(t[j]);
  }
};

}  // namespace

template <typename Real>
void sturm_counts_ldl_avx512(index_t n, const Real* d, const Real* l, const Real* ld,
                             const Real* x, index_t m, index_t* counts) {
  sturm_counts_vec<std::conditional_t<std::is_same_v<Real, double>, Avx512F64, Avx512F32>>(n, d, l, ld, x, m, counts);
}

template void sturm_counts_ldl_avx512<double>(index_t, const double*, const double*,
                                              const double*, const double*, index_t,
                                              index_t*);
template void sturm_counts_ldl_avx512<float>(index_t, const float*, const float*,
                                             const float*, const float*, index_t, index_t*);

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX512 && __AVX512F__
