// AVX2 Sturm-count entries: 2 x 4 fp64 or 2 x 8 fp32 shifts per pass.
// Compiled with -mavx2 -ffp-contract=off (set per-file in
// src/blas/CMakeLists.txt), apart from the AVX2 tables in kernels_avx2.cpp
// so those keep their own flags. Counts equal the scalar table's exactly.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <type_traits>

#include "blas/simd/sturm_body.hpp"

namespace dnc::blas::simd {
namespace {

struct Avx2F64 {
  using Real = double;
  using Reg = __m256d;
  using Cnt = __m256i;
  static constexpr index_t kLanes = 4;
  static Reg set1(double v) { return _mm256_set1_pd(v); }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static Reg neg(Reg a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  static Reg lt(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Reg eq(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static Reg finite(Reg a) {
    const Reg abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    return _mm256_cmp_pd(abs, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
                         _CMP_LT_OQ);
  }
  static Reg select(Reg mask, Reg t, Reg f) { return _mm256_blendv_pd(f, t, mask); }
  static Cnt zero_cnt() { return _mm256_setzero_si256(); }
  // A true mask lane is all ones, -1 as an integer.
  static Cnt inc(Cnt c, Reg mask) { return _mm256_sub_epi64(c, _mm256_castpd_si256(mask)); }
  static void store(Cnt c, index_t* out) {
    alignas(32) std::int64_t t[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), c);
    for (index_t j = 0; j < kLanes; ++j) out[j] = static_cast<index_t>(t[j]);
  }
};

struct Avx2F32 {
  using Real = float;
  using Reg = __m256;
  using Cnt = __m256i;
  static constexpr index_t kLanes = 8;
  static Reg set1(float v) { return _mm256_set1_ps(v); }
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
  static Reg neg(Reg a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static Reg lt(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static Reg eq(Reg a, Reg b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static Reg finite(Reg a) {
    const Reg abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a);
    return _mm256_cmp_ps(abs, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
                         _CMP_LT_OQ);
  }
  static Reg select(Reg mask, Reg t, Reg f) { return _mm256_blendv_ps(f, t, mask); }
  static Cnt zero_cnt() { return _mm256_setzero_si256(); }
  static Cnt inc(Cnt c, Reg mask) { return _mm256_sub_epi32(c, _mm256_castps_si256(mask)); }
  static void store(Cnt c, index_t* out) {
    alignas(32) std::int32_t t[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), c);
    for (index_t j = 0; j < kLanes; ++j) out[j] = static_cast<index_t>(t[j]);
  }
};

}  // namespace

template <typename Real>
void sturm_counts_ldl_avx2(index_t n, const Real* d, const Real* l, const Real* ld,
                           const Real* x, index_t m, index_t* counts) {
  sturm_counts_vec<std::conditional_t<std::is_same_v<Real, double>, Avx2F64, Avx2F32>>(n, d, l, ld, x, m, counts);
}

template void sturm_counts_ldl_avx2<double>(index_t, const double*, const double*,
                                            const double*, const double*, index_t, index_t*);
template void sturm_counts_ldl_avx2<float>(index_t, const float*, const float*, const float*,
                                           const float*, index_t, index_t*);

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX2 && __AVX2__
