// The AVX2 vector interfaces: F64x4 and F32x8 (one ymm of doubles or
// floats) and F32x4 (one xmm of floats, the row tile of the fp32 4x8
// microkernel). Every vector body -- kernel_body.hpp's level-1, LAED4-sum,
// packing and microkernel loops, sturm_body.hpp's Sturm counts -- is
// written over a V like these, so each AVX2 operation is spelt here once.
//
// Include only from files compiled for AVX2 (kernels_avx2.cpp with FMA,
// sturm_avx2.cpp without): a member is emitted only where a body calls it,
// so the Sturm file never meets the FMA members. The structs stay in an
// anonymous namespace, as kernel_body.hpp requires.
//
// Loads and stores are unaligned-form (vmovupd): the packing workspaces
// are 64-byte aligned anyway, and C panels have arbitrary leading
// dimensions.
#pragma once

#include <immintrin.h>

#include <type_traits>

#include "common/matrix.hpp"

namespace dnc::blas::simd {
namespace {

struct F64x4 {
  using Real = double;
  using Reg = __m256d;
  using Mask = __m256d;  // a true lane is all ones
  using Cnt = __m256i;
  static constexpr index_t kLanes = 4;
  static constexpr index_t kRegs = 16;
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg set1(double v) { return _mm256_set1_pd(v); }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg fmsub(Reg a, Reg b, Reg c) { return _mm256_fmsub_pd(a, b, c); }
  static Reg neg(Reg a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static Reg abs(Reg a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static double hsum(Reg v) {
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  }
  static void copy_half(const double* src, double* dst) {
    _mm_storeu_pd(dst, _mm_loadu_pd(src));
  }
  static Mask lt(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Mask le(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static Mask eq(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static Mask finite(Reg a) { return _mm256_cmp_pd(abs(a), set1(__builtin_inf()), _CMP_LT_OQ); }
  static Reg select(Mask m, Reg t, Reg f) { return _mm256_blendv_pd(f, t, m); }
  // |mag| with the sign bit of sgn, NaN signs included (std::copysign).
  static Reg copysign(Reg mag, Reg sgn) {
    const Reg sign = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign, mag), _mm256_and_pd(sign, sgn));
  }
  static Cnt zero_cnt() { return _mm256_setzero_si256(); }
  // A true mask lane is -1 as an integer.
  static Cnt inc(Cnt c, Mask m) { return _mm256_sub_epi64(c, _mm256_castpd_si256(m)); }
  static void store_cnt(index_t* out, Cnt c) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), c);
  }
};

// 8 float lanes per ymm: twice the fp64 lane count at the same issue
// width, which is the whole point of the fp32 fast path.
struct F32x8 {
  using Real = float;
  using Reg = __m256;
  using Mask = __m256;
  using Cnt = __m256i;
  static constexpr index_t kLanes = 8;
  static constexpr index_t kRegs = 16;
  static Reg zero() { return _mm256_setzero_ps(); }
  static Reg set1(float v) { return _mm256_set1_ps(v); }
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg fmsub(Reg a, Reg b, Reg c) { return _mm256_fmsub_ps(a, b, c); }
  static Reg neg(Reg a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static Reg abs(Reg a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static float hsum(Reg v) {
    __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
    return _mm_cvtss_f32(lo);
  }
  static void copy_half(const float* src, float* dst) {
    _mm_storeu_ps(dst, _mm_loadu_ps(src));
  }
  static Mask lt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static Mask le(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
  static Mask eq(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static Mask finite(Reg a) { return _mm256_cmp_ps(abs(a), set1(__builtin_inff()), _CMP_LT_OQ); }
  static Reg select(Mask m, Reg t, Reg f) { return _mm256_blendv_ps(f, t, m); }
  static Reg copysign(Reg mag, Reg sgn) {
    const Reg sign = _mm256_set1_ps(-0.0f);
    return _mm256_or_ps(_mm256_andnot_ps(sign, mag), _mm256_and_ps(sign, sgn));
  }
  static Cnt zero_cnt() { return _mm256_setzero_si256(); }
  static Cnt inc(Cnt c, Mask m) { return _mm256_sub_epi32(c, _mm256_castps_si256(m)); }
  static void store_cnt(index_t* out, Cnt c) {  // widened to 64 bits
    const auto lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(c));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), lo);
    const auto hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(c, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), hi);
  }
};

// 4 float lanes per xmm: the MR = 4 row tile of the fp32 short-wide
// microkernel, which carries only what that kernel needs.
struct F32x4 {
  using Real = float;
  using Reg = __m128;
  static constexpr index_t kLanes = 4;
  static constexpr index_t kRegs = 16;
  static Reg zero() { return _mm_setzero_ps(); }
  static Reg set1(float v) { return _mm_set1_ps(v); }
  static Reg load(const float* p) { return _mm_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm_storeu_ps(p, v); }
  static Reg add(Reg a, Reg b) { return _mm_add_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm_mul_ps(a, b); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm_fmadd_ps(a, b, c); }
};

/// The ymm interface of a precision.
template <typename Real>
using Ymm = std::conditional_t<std::is_same_v<Real, double>, F64x4, F32x8>;

}  // namespace
}  // namespace dnc::blas::simd
