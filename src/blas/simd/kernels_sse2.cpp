// SSE2 kernel table: 128-bit double vectors (2 lanes), no FMA. SSE2 is the
// x86-64 baseline, so this file needs no special flags; it exists so the
// dispatch has a vector path on pre-AVX2 hardware and so tests can compare
// three independent implementations of every kernel.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_SSE2) && defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>

namespace dnc::blas::simd {
namespace {

inline double hsum(__m128d v) { return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v))); }

inline __m128d vabs(__m128d v) { return _mm_andnot_pd(_mm_set1_pd(-0.0), v); }

// 8x4 microkernel: 16 xmm accumulators (4 row-pairs x 4 columns). That is
// the whole SSE register file, so the compiler keeps them resident.
void mk8x4_sse2(index_t kb, const double* ap, const double* bp, double alpha, double beta,
                double* c, index_t ldc, index_t mr, index_t nr) {
  __m128d acc[4][4];
  for (int j = 0; j < 4; ++j)
    for (int h = 0; h < 4; ++h) acc[j][h] = _mm_setzero_pd();
  for (index_t p = 0; p < kb; ++p) {
    const double* arow = ap + p * 8;
    const __m128d a0 = _mm_loadu_pd(arow);
    const __m128d a1 = _mm_loadu_pd(arow + 2);
    const __m128d a2 = _mm_loadu_pd(arow + 4);
    const __m128d a3 = _mm_loadu_pd(arow + 6);
    for (int j = 0; j < 4; ++j) {
      const __m128d b = _mm_set1_pd(bp[p * 4 + j]);
      acc[j][0] = _mm_add_pd(acc[j][0], _mm_mul_pd(a0, b));
      acc[j][1] = _mm_add_pd(acc[j][1], _mm_mul_pd(a1, b));
      acc[j][2] = _mm_add_pd(acc[j][2], _mm_mul_pd(a2, b));
      acc[j][3] = _mm_add_pd(acc[j][3], _mm_mul_pd(a3, b));
    }
  }
  const __m128d valpha = _mm_set1_pd(alpha);
  if (mr == 8) {
    for (index_t j = 0; j < nr; ++j) {
      double* col = c + j * ldc;
      for (int h = 0; h < 4; ++h) {
        __m128d r = _mm_mul_pd(acc[j][h], valpha);
        if (beta == 1.0)
          r = _mm_add_pd(r, _mm_loadu_pd(col + 2 * h));
        else if (beta != 0.0)
          r = _mm_add_pd(r, _mm_mul_pd(_mm_set1_pd(beta), _mm_loadu_pd(col + 2 * h)));
        _mm_storeu_pd(col + 2 * h, r);
      }
    }
    return;
  }
  alignas(16) double t[32];
  for (int j = 0; j < 4; ++j)
    for (int h = 0; h < 4; ++h) _mm_store_pd(t + j * 8 + 2 * h, acc[j][h]);
  for (index_t j = 0; j < nr; ++j) {
    double* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const double v = alpha * t[j * 8 + i];
      col[i] = (beta == 0.0) ? v : v + beta * col[i];
    }
  }
}

void mk4x8_sse2(index_t kb, const double* ap, const double* bp, double alpha, double beta,
                double* c, index_t ldc, index_t mr, index_t nr) {
  __m128d acc[8][2];
  for (int j = 0; j < 8; ++j) acc[j][0] = acc[j][1] = _mm_setzero_pd();
  for (index_t p = 0; p < kb; ++p) {
    const __m128d a0 = _mm_loadu_pd(ap + p * 4);
    const __m128d a1 = _mm_loadu_pd(ap + p * 4 + 2);
    const double* brow = bp + p * 8;
    for (int j = 0; j < 8; ++j) {
      const __m128d b = _mm_set1_pd(brow[j]);
      acc[j][0] = _mm_add_pd(acc[j][0], _mm_mul_pd(a0, b));
      acc[j][1] = _mm_add_pd(acc[j][1], _mm_mul_pd(a1, b));
    }
  }
  const __m128d valpha = _mm_set1_pd(alpha);
  if (mr == 4) {
    for (index_t j = 0; j < nr; ++j) {
      double* col = c + j * ldc;
      for (int h = 0; h < 2; ++h) {
        __m128d r = _mm_mul_pd(acc[j][h], valpha);
        if (beta == 1.0)
          r = _mm_add_pd(r, _mm_loadu_pd(col + 2 * h));
        else if (beta != 0.0)
          r = _mm_add_pd(r, _mm_mul_pd(_mm_set1_pd(beta), _mm_loadu_pd(col + 2 * h)));
        _mm_storeu_pd(col + 2 * h, r);
      }
    }
    return;
  }
  alignas(16) double t[32];
  for (int j = 0; j < 8; ++j) {
    _mm_store_pd(t + j * 4, acc[j][0]);
    _mm_store_pd(t + j * 4 + 2, acc[j][1]);
  }
  for (index_t j = 0; j < nr; ++j) {
    double* col = c + j * ldc;
    for (index_t i = 0; i < mr; ++i) {
      const double v = alpha * t[j * 4 + i];
      col[i] = (beta == 0.0) ? v : v + beta * col[i];
    }
  }
}

void pack_a_sse2(const double* a, index_t lda, bool trans, index_t i0, index_t mr, index_t p0,
                 index_t kb, double* dst, index_t MR) {
  if (!trans && mr == MR) {
    const double* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += MR)
      for (index_t i = 0; i < MR; i += 2) _mm_storeu_pd(dst + i, _mm_loadu_pd(src + i));
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t i = 0; i < MR; ++i)
      dst[p * MR + i] =
          (i < mr) ? (trans ? a[(p0 + p) + (i0 + i) * lda] : a[(i0 + i) + (p0 + p) * lda])
                   : 0.0;
  }
}

void pack_b_sse2(const double* b, index_t ldb, bool trans, index_t p0, index_t kb, index_t j0,
                 index_t nr, double* dst, index_t NR) {
  if (!trans && nr == NR) {
    // 2x2 in-register transposes over pairs of k steps and column pairs.
    index_t p = 0;
    for (; p + 2 <= kb; p += 2) {
      const double* base = b + (p0 + p);
      for (index_t j2 = 0; j2 < NR; j2 += 2) {
        const double* col = base + (j0 + j2) * ldb;
        const __m128d c0 = _mm_loadu_pd(col);
        const __m128d c1 = _mm_loadu_pd(col + ldb);
        _mm_storeu_pd(dst + p * NR + j2, _mm_unpacklo_pd(c0, c1));
        _mm_storeu_pd(dst + (p + 1) * NR + j2, _mm_unpackhi_pd(c0, c1));
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

void axpy_sse2(index_t n, double alpha, const double* x, double* y) {
  const __m128d va = _mm_set1_pd(alpha);
  index_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(va, _mm_loadu_pd(x + i))));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double dot_sse2(index_t n, const double* x, const double* y) {
  __m128d s0 = _mm_setzero_pd(), s1 = _mm_setzero_pd();
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = _mm_add_pd(s0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
    s1 = _mm_add_pd(s1, _mm_mul_pd(_mm_loadu_pd(x + i + 2), _mm_loadu_pd(y + i + 2)));
  }
  for (; i + 2 <= n; i += 2)
    s0 = _mm_add_pd(s0, _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
  double s = hsum(_mm_add_pd(s0, s1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void scal_sse2(index_t n, double alpha, double* x) {
  const __m128d va = _mm_set1_pd(alpha);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) _mm_storeu_pd(x + i, _mm_mul_pd(va, _mm_loadu_pd(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

void copy_sse2(index_t n, const double* x, double* y) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2) _mm_storeu_pd(y + i, _mm_loadu_pd(x + i));
  for (; i < n; ++i) y[i] = x[i];
}

void swap_sse2(index_t n, double* x, double* y) {
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vx = _mm_loadu_pd(x + i);
    const __m128d vy = _mm_loadu_pd(y + i);
    _mm_storeu_pd(x + i, vy);
    _mm_storeu_pd(y + i, vx);
  }
  for (; i < n; ++i) {
    const double t = x[i];
    x[i] = y[i];
    y[i] = t;
  }
}

void rot_sse2(index_t n, double* x, double* y, double c, double s) {
  const __m128d vc = _mm_set1_pd(c);
  const __m128d vs = _mm_set1_pd(s);
  index_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d vx = _mm_loadu_pd(x + i);
    const __m128d vy = _mm_loadu_pd(y + i);
    _mm_storeu_pd(x + i, _mm_add_pd(_mm_mul_pd(vc, vx), _mm_mul_pd(vs, vy)));
    _mm_storeu_pd(y + i, _mm_sub_pd(_mm_mul_pd(vc, vy), _mm_mul_pd(vs, vx)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

double sumsq_sse2(index_t n, const double* x) {
  __m128d s0 = _mm_setzero_pd(), s1 = _mm_setzero_pd();
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d v0 = _mm_loadu_pd(x + i);
    const __m128d v1 = _mm_loadu_pd(x + i + 2);
    s0 = _mm_add_pd(s0, _mm_mul_pd(v0, v0));
    s1 = _mm_add_pd(s1, _mm_mul_pd(v1, v1));
  }
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(x + i);
    s0 = _mm_add_pd(s0, _mm_mul_pd(v, v));
  }
  double s = hsum(_mm_add_pd(s0, s1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void laed4_sums_sse2(index_t j0, index_t j1, const double* delta0, const double* z, double rho,
                     double tau, double* w, double* dsum, double* asum) {
  const __m128d vtau = _mm_set1_pd(tau);
  const __m128d vrho = _mm_set1_pd(rho);
  __m128d vw = _mm_setzero_pd(), vd = _mm_setzero_pd(), va = _mm_setzero_pd();
  index_t j = j0;
  for (; j + 2 <= j1; j += 2) {
    const __m128d dj = _mm_sub_pd(_mm_loadu_pd(delta0 + j), vtau);
    const __m128d zj = _mm_loadu_pd(z + j);
    const __m128d t = _mm_div_pd(zj, dj);
    const __m128d term = _mm_mul_pd(vrho, _mm_mul_pd(zj, t));
    vw = _mm_add_pd(vw, term);
    vd = _mm_add_pd(vd, _mm_mul_pd(vrho, _mm_mul_pd(t, t)));
    va = _mm_add_pd(va, vabs(term));
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

}  // namespace

const KernelTable kSse2Table = {
    SimdIsa::Sse2,
    "sse2",
    &mk8x4_sse2,
    8,
    4,
    &mk4x8_sse2,
    &pack_a_sse2,
    &pack_b_sse2,
    24 * 24 * 24,
    &axpy_sse2,
    &dot_sse2,
    &scal_sse2,
    &copy_sse2,
    &swap_sse2,
    &rot_sse2,
    &sumsq_sse2,
    &laed4_sums_sse2,
    &sturm_counts_ldl_scalar<double>,
    1,
};

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_SSE2 && __SSE2__
