// AVX2 + FMA kernel table: 256-bit double vectors (4 lanes), fused
// multiply-add. This file is compiled with -mavx2 -mfma (set per-file in
// src/blas/CMakeLists.txt) and is only added to the build on x86 targets
// with DNC_ENABLE_SIMD=ON; dispatch.cpp never selects it unless the cpuid
// probe reports both AVX2 and FMA, so no instruction here runs on hardware
// that cannot execute it.
//
// All loads/stores are unaligned-form (vmovupd): the packing workspaces are
// 64-byte aligned anyway, and C panels have arbitrary leading dimensions.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace dnc::blas::simd {
namespace {

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

inline __m256d vabs(__m256d v) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v); }

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

void pack_a_avx2(const double* a, index_t lda, bool trans, index_t i0, index_t mr, index_t p0,
                 index_t kb, double* dst, index_t MR) {
  if (!trans && mr == MR && MR % 4 == 0) {
    // Contiguous column chunks: straight vector copy, one ymm per 4 rows
    // (any tile height that is a whole number of vectors: 4, 8, 16).
    const double* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += MR)
      for (index_t i = 0; i < MR; i += 4) _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t i = 0; i < MR; ++i)
      dst[p * MR + i] =
          (i < mr) ? (trans ? a[(p0 + p) + (i0 + i) * lda] : a[(i0 + i) + (p0 + p) * lda])
                   : 0.0;
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

void pack_b_avx2(const double* b, index_t ldb, bool trans, index_t p0, index_t kb, index_t j0,
                 index_t nr, double* dst, index_t NR) {
  if (!trans && nr == NR) {
    // Full tile of op(B)=B: dst rows are B columns -- a k x NR transpose.
    // Do it 4 k-steps at a time with in-register 4x4 transposes.
    index_t p = 0;
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
    for (; p < kb; ++p)
      for (index_t j = 0; j < NR; ++j) dst[p * NR + j] = b[(p0 + p) + (j0 + j) * ldb];
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t j = 0; j < NR; ++j)
      dst[p * NR + j] =
          (j < nr) ? (trans ? b[(j0 + j) + (p0 + p) * ldb] : b[(p0 + p) + (j0 + j) * ldb])
                   : 0.0;
  }
}

void axpy_avx2(index_t n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                                _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double dot_avx2(index_t n, const double* x, const double* y) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4), s1);
  }
  for (; i + 4 <= n; i += 4)
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), s0);
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void scal_avx2(index_t n, double alpha, double* x) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

void copy_avx2(index_t n, const double* x, double* y) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(y + i, _mm256_loadu_pd(x + i));
  for (; i < n; ++i) y[i] = x[i];
}

void swap_avx2(index_t n, double* x, double* y) {
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, vy);
    _mm256_storeu_pd(y + i, vx);
  }
  for (; i < n; ++i) {
    const double t = x[i];
    x[i] = y[i];
    y[i] = t;
  }
}

void rot_avx2(index_t n, double* x, double* y, double c, double s) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, _mm256_fmadd_pd(vc, vx, _mm256_mul_pd(vs, vy)));
    _mm256_storeu_pd(y + i, _mm256_fmsub_pd(vc, vy, _mm256_mul_pd(vs, vx)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

double sumsq_avx2(index_t n, const double* x) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    s0 = _mm256_fmadd_pd(v0, v0, s0);
    s1 = _mm256_fmadd_pd(v1, v1, s1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    s0 = _mm256_fmadd_pd(v, v, s0);
  }
  double s = hsum(_mm256_add_pd(s0, s1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void laed4_sums_avx2(index_t j0, index_t j1, const double* delta0, const double* z, double rho,
                     double tau, double* w, double* dsum, double* asum) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vrho = _mm256_set1_pd(rho);
  __m256d vw = _mm256_setzero_pd(), vd = _mm256_setzero_pd(), va = _mm256_setzero_pd();
  index_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    const __m256d dj = _mm256_sub_pd(_mm256_loadu_pd(delta0 + j), vtau);
    const __m256d zj = _mm256_loadu_pd(z + j);
    const __m256d t = _mm256_div_pd(zj, dj);
    const __m256d term = _mm256_mul_pd(vrho, _mm256_mul_pd(zj, t));
    vw = _mm256_add_pd(vw, term);
    vd = _mm256_fmadd_pd(vrho, _mm256_mul_pd(t, t), vd);
    va = _mm256_add_pd(va, vabs(term));
  }
  double fw = hsum(vw), fd = hsum(vd), fa = hsum(va);
  for (; j < j1; ++j) {
    const double dj = delta0[j] - tau;
    const double t = z[j] / dj;
    const double term = rho * z[j] * t;
    fw += term;
    fd += rho * t * t;
    fa += std::fabs(term);
  }
  *w += fw;
  *dsum += fd;
  *asum += fa;
}

// ---------------------------------------------------------------------
// Float kernels: 256-bit vectors carry 8 float lanes -- twice the fp64
// lane count at the same issue width, which is the whole point of the
// fp32 fast path. Tile shapes (MR/NR) match the double kernels so the
// blocking driver in gemm.cpp is shared by both precisions.
// ---------------------------------------------------------------------

inline float hsumf(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  return _mm_cvtss_f32(lo);
}

inline __m256 vabsf(__m256 v) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v); }

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

void pack_a_avx2_f32(const float* a, index_t lda, bool trans, index_t i0, index_t mr,
                     index_t p0, index_t kb, float* dst, index_t MR) {
  if (!trans && mr == MR && MR % 8 == 0) {
    // Contiguous column chunks: straight vector copy, one ymm per 8 rows
    // (any tile height that is a whole number of vectors: 8, 32).
    const float* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += MR)
      for (index_t i = 0; i < MR; i += 8) _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
    return;
  }
  if (!trans && mr == MR && MR == 4) {  // the short-wide 4x8 tile
    const float* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += 4) _mm_storeu_ps(dst, _mm_loadu_ps(src));
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t i = 0; i < MR; ++i)
      dst[p * MR + i] =
          (i < mr) ? (trans ? a[(p0 + p) + (i0 + i) * lda] : a[(i0 + i) + (p0 + p) * lda])
                   : 0.0f;
  }
}

// Packing B is a k x NR transpose of strided loads -- memory bound either
// way, so the float variant keeps the plain loop (the double path's 4x4
// in-register transpose trick does not map to 8-lane tiles cleanly).
void pack_b_avx2_f32(const float* b, index_t ldb, bool trans, index_t p0, index_t kb,
                     index_t j0, index_t nr, float* dst, index_t NR) {
  if (!trans && nr == NR) {
    for (index_t p = 0; p < kb; ++p)
      for (index_t j = 0; j < NR; ++j) dst[p * NR + j] = b[(p0 + p) + (j0 + j) * ldb];
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t j = 0; j < NR; ++j)
      dst[p * NR + j] =
          (j < nr) ? (trans ? b[(j0 + j) + (p0 + p) * ldb] : b[(p0 + p) + (j0 + j) * ldb])
                   : 0.0f;
  }
}

void axpy_avx2_f32(index_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  index_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(y + i + 8, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8),
                                                _mm256_loadu_ps(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

float dot_avx2_f32(index_t n, const float* x, const float* y) {
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), s0);
    s1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), _mm256_loadu_ps(y + i + 8), s1);
  }
  for (; i + 8 <= n; i += 8)
    s0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), s0);
  float s = hsumf(_mm256_add_ps(s0, s1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void scal_avx2_f32(index_t n, float alpha, float* x) {
  const __m256 va = _mm256_set1_ps(alpha);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

void copy_avx2_f32(index_t n, const float* x, float* y) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, _mm256_loadu_ps(x + i));
  for (; i < n; ++i) y[i] = x[i];
}

void swap_avx2_f32(index_t n, float* x, float* y) {
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(x + i, vy);
    _mm256_storeu_ps(y + i, vx);
  }
  for (; i < n; ++i) {
    const float t = x[i];
    x[i] = y[i];
    y[i] = t;
  }
}

void rot_avx2_f32(index_t n, float* x, float* y, float c, float s) {
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 vs = _mm256_set1_ps(s);
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(x + i, _mm256_fmadd_ps(vc, vx, _mm256_mul_ps(vs, vy)));
    _mm256_storeu_ps(y + i, _mm256_fmsub_ps(vc, vy, _mm256_mul_ps(vs, vx)));
  }
  for (; i < n; ++i) {
    const float xi = x[i];
    const float yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

float sumsq_avx2_f32(index_t n, const float* x) {
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  index_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 v0 = _mm256_loadu_ps(x + i);
    const __m256 v1 = _mm256_loadu_ps(x + i + 8);
    s0 = _mm256_fmadd_ps(v0, v0, s0);
    s1 = _mm256_fmadd_ps(v1, v1, s1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    s0 = _mm256_fmadd_ps(v, v, s0);
  }
  float s = hsumf(_mm256_add_ps(s0, s1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void laed4_sums_avx2_f32(index_t j0, index_t j1, const float* delta0, const float* z,
                         float rho, float tau, float* w, float* dsum, float* asum) {
  const __m256 vtau = _mm256_set1_ps(tau);
  const __m256 vrho = _mm256_set1_ps(rho);
  __m256 vw = _mm256_setzero_ps(), vd = _mm256_setzero_ps(), va = _mm256_setzero_ps();
  index_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    const __m256 dj = _mm256_sub_ps(_mm256_loadu_ps(delta0 + j), vtau);
    const __m256 zj = _mm256_loadu_ps(z + j);
    const __m256 t = _mm256_div_ps(zj, dj);
    const __m256 term = _mm256_mul_ps(vrho, _mm256_mul_ps(zj, t));
    vw = _mm256_add_ps(vw, term);
    vd = _mm256_fmadd_ps(vrho, _mm256_mul_ps(t, t), vd);
    va = _mm256_add_ps(va, vabsf(term));
  }
  float fw = hsumf(vw), fd = hsumf(vd), fa = hsumf(va);
  for (; j < j1; ++j) {
    const float dj = delta0[j] - tau;
    const float t = z[j] / dj;
    const float term = rho * z[j] * t;
    fw += term;
    fd += rho * t * t;
    fa += std::fabs(term);
  }
  *w += fw;
  *dsum += fd;
  *asum += fa;
}

}  // namespace

const KernelTable kAvx2Table = {
    SimdIsa::Avx2,
    "avx2",
    &mk8x4_avx2,
    8,
    4,
    &mk4x8_avx2,
    &pack_a_avx2,
    &pack_b_avx2,
    16 * 16 * 16,
    &axpy_avx2,
    &dot_avx2,
    &scal_avx2,
    &copy_avx2,
    &swap_avx2,
    &rot_avx2,
    &sumsq_avx2,
    &laed4_sums_avx2,
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
    &pack_a_avx2_f32,
    &pack_b_avx2_f32,
    16 * 16 * 16,
    &axpy_avx2_f32,
    &dot_avx2_f32,
    &scal_avx2_f32,
    &copy_avx2_f32,
    &swap_avx2_f32,
    &rot_avx2_f32,
    &sumsq_avx2_f32,
    &laed4_sums_avx2_f32,
    &sturm_counts_ldl_avx2<float>,
    16,
};

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX2 && __AVX2__ && __FMA__
