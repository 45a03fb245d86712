// The AVX-512 vector interfaces: F64x8 and F32x16 (one zmm of doubles or
// floats), the same operations as the AVX2 interfaces in vec_avx2.hpp, so
// kernel_body.hpp and sturm_body.hpp compile against either.
//
// Include only from files compiled with -mavx512f. Only AVX-512F
// instructions are used (no DQ/VL): comparisons write mask registers, the
// counts are masked integer adds, and sign flips go through the integer
// xor. The structs stay in an anonymous namespace, as kernel_body.hpp
// requires.
#pragma once

#include <immintrin.h>

#include <cstdint>
#include <type_traits>

#include "common/matrix.hpp"

namespace dnc::blas::simd {
namespace {

struct F64x8 {
  using Real = double;
  using Reg = __m512d;
  using Mask = __mmask8;
  using Cnt = __m512i;
  static constexpr index_t kLanes = 8;
  static constexpr index_t kRegs = 32;
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg set1(double v) { return _mm512_set1_pd(v); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg fmsub(Reg a, Reg b, Reg c) { return _mm512_fmsub_pd(a, b, c); }
  static Reg neg(Reg a) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(set1(-0.0))));
  }
  static Reg abs(Reg a) { return _mm512_abs_pd(a); }
  static double hsum(Reg v) { return _mm512_reduce_add_pd(v); }
  static void copy_half(const double* src, double* dst) {
    _mm256_storeu_pd(dst, _mm256_loadu_pd(src));
  }
  static Mask lt(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static Mask le(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static Mask eq(Reg a, Reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static Mask finite(Reg a) { return lt(abs(a), set1(__builtin_inf())); }
  static Reg select(Mask m, Reg t, Reg f) { return _mm512_mask_blend_pd(m, f, t); }
  // |mag| with the sign bit of sgn, NaN signs included (std::copysign):
  // bitwise select 0xCA = (a ? b : c), with a = the sign mask.
  static Reg copysign(Reg mag, Reg sgn) {
    return _mm512_castsi512_pd(_mm512_ternarylogic_epi64(_mm512_castpd_si512(set1(-0.0)),
                                                         _mm512_castpd_si512(sgn),
                                                         _mm512_castpd_si512(mag), 0xCA));
  }
  static Cnt zero_cnt() { return _mm512_setzero_si512(); }
  static Cnt inc(Cnt c, Mask m) { return _mm512_mask_add_epi64(c, m, c, _mm512_set1_epi64(1)); }
  static void store_cnt(index_t* out, Cnt c) { _mm512_storeu_si512(out, c); }
};

struct F32x16 {
  using Real = float;
  using Reg = __m512;
  using Mask = __mmask16;
  using Cnt = __m512i;
  static constexpr index_t kLanes = 16;
  static constexpr index_t kRegs = 32;
  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg set1(float v) { return _mm512_set1_ps(v); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_ps(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg fmsub(Reg a, Reg b, Reg c) { return _mm512_fmsub_ps(a, b, c); }
  static Reg neg(Reg a) {
    return _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(a), _mm512_castps_si512(set1(-0.0f))));
  }
  static Reg abs(Reg a) { return _mm512_abs_ps(a); }
  static float hsum(Reg v) { return _mm512_reduce_add_ps(v); }
  static void copy_half(const float* src, float* dst) {
    _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
  }
  static Mask lt(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static Mask le(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_LE_OQ); }
  static Mask eq(Reg a, Reg b) { return _mm512_cmp_ps_mask(a, b, _CMP_EQ_OQ); }
  static Mask finite(Reg a) { return lt(abs(a), set1(__builtin_inff())); }
  static Reg select(Mask m, Reg t, Reg f) { return _mm512_mask_blend_ps(m, f, t); }
  static Reg copysign(Reg mag, Reg sgn) {
    return _mm512_castsi512_ps(_mm512_ternarylogic_epi32(_mm512_castps_si512(set1(-0.0f)),
                                                         _mm512_castps_si512(sgn),
                                                         _mm512_castps_si512(mag), 0xCA));
  }
  static Cnt zero_cnt() { return _mm512_setzero_si512(); }
  static Cnt inc(Cnt c, Mask m) { return _mm512_mask_add_epi32(c, m, c, _mm512_set1_epi32(1)); }
  static void store_cnt(index_t* out, Cnt c) {
    alignas(64) std::int32_t t[kLanes];
    _mm512_store_si512(t, c);
    for (index_t j = 0; j < kLanes; ++j) out[j] = t[j];
  }
};

/// The zmm interface of a precision.
template <typename Real>
using Zmm = std::conditional_t<std::is_same_v<Real, double>, F64x8, F32x16>;

}  // namespace
}  // namespace dnc::blas::simd
