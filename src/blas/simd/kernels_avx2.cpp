// AVX2 + FMA kernel tables: 256-bit vectors of 4 doubles or 8 floats,
// fused multiply-add. This file is compiled with -mavx2 -mfma (set per-file
// in src/blas/CMakeLists.txt) and is only added to the build on x86 targets
// with DNC_ENABLE_SIMD=ON; dispatch.cpp never selects it unless the cpuid
// probe reports both AVX2 and FMA, so no instruction here runs on hardware
// that cannot execute it.
//
// The level-1, laed4_sums and pack_a entries are the kernel_body.hpp loops
// instantiated over the two vector interfaces below; this file adds the
// four GEMM microkernels and the fp64 transposing pack_b.
//
// All loads/stores are unaligned-form (vmovupd): the packing workspaces are
// 64-byte aligned anyway, and C panels have arbitrary leading dimensions.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "blas/simd/kernel_body.hpp"

namespace dnc::blas::simd {
namespace {

// The vector interface of kernel_body.hpp: 4 double lanes per ymm.
struct F64x4 {
  using Real = double;
  using Reg = __m256d;
  static constexpr index_t kLanes = 4;
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
};

// 8 float lanes per ymm: twice the fp64 lane count at the same issue
// width, which is the whole point of the fp32 fast path.
struct F32x8 {
  using Real = float;
  using Reg = __m256;
  static constexpr index_t kLanes = 8;
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
};

// Applies C[0:4] = alpha*acc + beta*C[0:4] for one 4-row chunk of a column.
inline void update_col4(double* col, __m256d acc, __m256d valpha, double beta) {
  __m256d r = _mm256_mul_pd(acc, valpha);
  if (beta == 1.0)
    r = _mm256_add_pd(r, _mm256_loadu_pd(col));
  else if (beta != 0.0)
    r = _mm256_fmadd_pd(_mm256_set1_pd(beta), _mm256_loadu_pd(col), r);
  _mm256_storeu_pd(col, r);
}

// 8x4 microkernel: 8 accumulator registers (2 per C column), one 8-row A
// load and 4 B broadcasts per k step -- 8 independent FMA chains, enough to
// hide FMA latency on any AVX2 core.
void mk8x4_avx2(index_t kb, const double* ap, const double* bp, double alpha, double beta,
                double* c, index_t ldc, index_t mr, index_t nr) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
  __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
  for (index_t p = 0; p < kb; ++p) {
    const __m256d lo = _mm256_loadu_pd(ap + p * 8);
    const __m256d hi = _mm256_loadu_pd(ap + p * 8 + 4);
    __m256d b = _mm256_broadcast_sd(bp + p * 4 + 0);
    a00 = _mm256_fmadd_pd(lo, b, a00);
    a01 = _mm256_fmadd_pd(hi, b, a01);
    b = _mm256_broadcast_sd(bp + p * 4 + 1);
    a10 = _mm256_fmadd_pd(lo, b, a10);
    a11 = _mm256_fmadd_pd(hi, b, a11);
    b = _mm256_broadcast_sd(bp + p * 4 + 2);
    a20 = _mm256_fmadd_pd(lo, b, a20);
    a21 = _mm256_fmadd_pd(hi, b, a21);
    b = _mm256_broadcast_sd(bp + p * 4 + 3);
    a30 = _mm256_fmadd_pd(lo, b, a30);
    a31 = _mm256_fmadd_pd(hi, b, a31);
  }
  const __m256d valpha = _mm256_set1_pd(alpha);
  if (mr == 8) {
    const __m256d accs[4][2] = {{a00, a01}, {a10, a11}, {a20, a21}, {a30, a31}};
    for (index_t j = 0; j < nr; ++j) {
      double* col = c + j * ldc;
      update_col4(col, accs[j][0], valpha, beta);
      update_col4(col + 4, accs[j][1], valpha, beta);
    }
    return;
  }
  // Partial row tile: spill to a dense 8x4 scratch and finish scalar.
  alignas(64) double t[32];
  _mm256_store_pd(t + 0, a00);
  _mm256_store_pd(t + 4, a01);
  _mm256_store_pd(t + 8, a10);
  _mm256_store_pd(t + 12, a11);
  _mm256_store_pd(t + 16, a20);
  _mm256_store_pd(t + 20, a21);
  _mm256_store_pd(t + 24, a30);
  _mm256_store_pd(t + 28, a31);
  for (index_t j = 0; j < nr; ++j) {
    double* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const double v = alpha * t[j * 8 + i];
      col[i] = (beta == 0.0) ? v : v + beta * col[i];
    }
  }
}

// 4x8 microkernel for short-wide C panels: one accumulator per column.
void mk4x8_avx2(index_t kb, const double* ap, const double* bp, double alpha, double beta,
                double* c, index_t ldc, index_t mr, index_t nr) {
  __m256d acc[8];
  for (int j = 0; j < 8; ++j) acc[j] = _mm256_setzero_pd();
  for (index_t p = 0; p < kb; ++p) {
    const __m256d a = _mm256_loadu_pd(ap + p * 4);
    const double* brow = bp + p * 8;
    for (int j = 0; j < 8; ++j)
      acc[j] = _mm256_fmadd_pd(a, _mm256_broadcast_sd(brow + j), acc[j]);
  }
  const __m256d valpha = _mm256_set1_pd(alpha);
  if (mr == 4) {
    for (index_t j = 0; j < nr; ++j) update_col4(c + j * ldc, acc[j], valpha, beta);
    return;
  }
  alignas(64) double t[32];
  for (int j = 0; j < 8; ++j) _mm256_store_pd(t + j * 4, acc[j]);
  for (index_t j = 0; j < nr; ++j) {
    double* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const double v = alpha * t[j * 4 + i];
      col[i] = (beta == 0.0) ? v : v + beta * col[i];
    }
  }
}

// Transposes a 4x4 block held in four column vectors into four row vectors.
inline void transpose4(__m256d c0, __m256d c1, __m256d c2, __m256d c3, __m256d& r0,
                       __m256d& r1, __m256d& r2, __m256d& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(c0, c1);
  const __m256d t1 = _mm256_unpackhi_pd(c0, c1);
  const __m256d t2 = _mm256_unpacklo_pd(c2, c3);
  const __m256d t3 = _mm256_unpackhi_pd(c2, c3);
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// Full untransposed tiles of op(B) = B: dst rows are B columns, a k x NR
// transpose done 4 k-steps at a time with in-register 4x4 transposes; the
// remaining k-steps and every other case take the plain loops.
void pack_b_avx2(const double* b, index_t ldb, bool trans, index_t p0, index_t kb, index_t j0,
                 index_t nr, double* dst, index_t NR) {
  index_t p = 0;
  if (!trans && nr == NR) {
    for (; p + 4 <= kb; p += 4) {
      const double* base = b + (p0 + p);
      for (index_t j4 = 0; j4 < NR; j4 += 4) {
        const double* col = base + (j0 + j4) * ldb;
        __m256d r0, r1, r2, r3;
        transpose4(_mm256_loadu_pd(col), _mm256_loadu_pd(col + ldb),
                   _mm256_loadu_pd(col + 2 * ldb), _mm256_loadu_pd(col + 3 * ldb), r0, r1, r2,
                   r3);
        double* out = dst + p * NR + j4;
        _mm256_storeu_pd(out, r0);
        _mm256_storeu_pd(out + NR, r1);
        _mm256_storeu_pd(out + 2 * NR, r2);
        _mm256_storeu_pd(out + 3 * NR, r3);
      }
    }
  }
  pack_b_loop<F64x4>(b, ldb, trans, p0 + p, kb - p, j0, nr, dst + p * NR, NR);
}

// Float microkernels. Tile shapes (MR/NR) match the double kernels so the
// blocking driver in gemm.cpp is shared by both precisions.

// Applies C[0:8] = alpha*acc + beta*C[0:8] for one 8-row chunk of a column.
inline void update_col8f(float* col, __m256 acc, __m256 valpha, float beta) {
  __m256 r = _mm256_mul_ps(acc, valpha);
  if (beta == 1.0f)
    r = _mm256_add_ps(r, _mm256_loadu_ps(col));
  else if (beta != 0.0f)
    r = _mm256_fmadd_ps(_mm256_set1_ps(beta), _mm256_loadu_ps(col), r);
  _mm256_storeu_ps(col, r);
}

// 8x4 float microkernel: one 8-lane vector covers the whole MR=8 row tile,
// so a single accumulator per C column would leave only 4 FMA chains in
// flight. The k loop is unrolled by 2 with a second accumulator set (8
// chains total) to hide FMA latency; the sets are summed once at the end.
void mk8x4_avx2_f32(index_t kb, const float* ap, const float* bp, float alpha, float beta,
                    float* c, index_t ldc, index_t mr, index_t nr) {
  __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
  __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
  __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
  index_t p = 0;
  for (; p + 2 <= kb; p += 2) {
    const __m256 lo = _mm256_loadu_ps(ap + p * 8);
    a0 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 0), a0);
    a1 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 1), a1);
    a2 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 2), a2);
    a3 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 3), a3);
    const __m256 lo2 = _mm256_loadu_ps(ap + (p + 1) * 8);
    b0 = _mm256_fmadd_ps(lo2, _mm256_broadcast_ss(bp + (p + 1) * 4 + 0), b0);
    b1 = _mm256_fmadd_ps(lo2, _mm256_broadcast_ss(bp + (p + 1) * 4 + 1), b1);
    b2 = _mm256_fmadd_ps(lo2, _mm256_broadcast_ss(bp + (p + 1) * 4 + 2), b2);
    b3 = _mm256_fmadd_ps(lo2, _mm256_broadcast_ss(bp + (p + 1) * 4 + 3), b3);
  }
  if (p < kb) {
    const __m256 lo = _mm256_loadu_ps(ap + p * 8);
    a0 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 0), a0);
    a1 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 1), a1);
    a2 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 2), a2);
    a3 = _mm256_fmadd_ps(lo, _mm256_broadcast_ss(bp + p * 4 + 3), a3);
  }
  a0 = _mm256_add_ps(a0, b0);
  a1 = _mm256_add_ps(a1, b1);
  a2 = _mm256_add_ps(a2, b2);
  a3 = _mm256_add_ps(a3, b3);
  const __m256 valpha = _mm256_set1_ps(alpha);
  if (mr == 8) {
    const __m256 accs[4] = {a0, a1, a2, a3};
    for (index_t j = 0; j < nr; ++j) update_col8f(c + j * ldc, accs[j], valpha, beta);
    return;
  }
  // Partial row tile: spill to a dense 8x4 scratch and finish scalar.
  alignas(64) float t[32];
  _mm256_store_ps(t + 0, a0);
  _mm256_store_ps(t + 8, a1);
  _mm256_store_ps(t + 16, a2);
  _mm256_store_ps(t + 24, a3);
  for (index_t j = 0; j < nr; ++j) {
    float* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const float v = alpha * t[j * 8 + i];
      col[i] = (beta == 0.0f) ? v : v + beta * col[i];
    }
  }
}

// 4x8 float microkernel for short-wide C panels: the MR=4 row tile is a
// 128-bit vector; one accumulator per column gives 8 FMA chains.
void mk4x8_avx2_f32(index_t kb, const float* ap, const float* bp, float alpha, float beta,
                    float* c, index_t ldc, index_t mr, index_t nr) {
  __m128 acc[8];
  for (int j = 0; j < 8; ++j) acc[j] = _mm_setzero_ps();
  for (index_t p = 0; p < kb; ++p) {
    const __m128 a = _mm_loadu_ps(ap + p * 4);
    const float* brow = bp + p * 8;
    for (int j = 0; j < 8; ++j)
      acc[j] = _mm_fmadd_ps(a, _mm_set1_ps(brow[j]), acc[j]);
  }
  const __m128 valpha = _mm_set1_ps(alpha);
  if (mr == 4) {
    for (index_t j = 0; j < nr; ++j) {
      float* col = c + j * ldc;
      __m128 r = _mm_mul_ps(acc[j], valpha);
      if (beta == 1.0f)
        r = _mm_add_ps(r, _mm_loadu_ps(col));
      else if (beta != 0.0f)
        r = _mm_fmadd_ps(_mm_set1_ps(beta), _mm_loadu_ps(col), r);
      _mm_storeu_ps(col, r);
    }
    return;
  }
  alignas(64) float t[32];
  for (int j = 0; j < 8; ++j) _mm_store_ps(t + j * 4, acc[j]);
  for (index_t j = 0; j < nr; ++j) {
    float* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const float v = alpha * t[j * 4 + i];
      col[i] = (beta == 0.0f) ? v : v + beta * col[i];
    }
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    SimdIsa::Avx2,
    "avx2",
    &mk8x4_avx2,
    8,
    4,
    &mk4x8_avx2,
    &pack_a_vec<F64x4>,
    &pack_b_avx2,
    16 * 16 * 16,
    &axpy_vec<F64x4>,
    &dot_vec<F64x4>,
    &scal_vec<F64x4>,
    &copy_vec<F64x4>,
    &swap_vec<F64x4>,
    &rot_vec<F64x4>,
    &sumsq_vec<F64x4>,
    &laed4_sums_vec<F64x4>,
    &sturm_counts_ldl_avx2<double>,
    8,
};

const KernelTableT<float> kAvx2TableF32 = {
    SimdIsa::Avx2,
    "avx2",
    &mk8x4_avx2_f32,
    8,
    4,
    &mk4x8_avx2_f32,
    &pack_a_vec<F32x8>,
    &pack_b_loop<F32x8>,
    16 * 16 * 16,
    &axpy_vec<F32x8>,
    &dot_vec<F32x8>,
    &scal_vec<F32x8>,
    &copy_vec<F32x8>,
    &swap_vec<F32x8>,
    &rot_vec<F32x8>,
    &sumsq_vec<F32x8>,
    &laed4_sums_vec<F32x8>,
    &sturm_counts_ldl_avx2<float>,
    16,
};

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX2 && __AVX2__ && __FMA__
