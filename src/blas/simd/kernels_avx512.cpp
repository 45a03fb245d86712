// AVX-512 kernel tables: 512-bit GEMM microkernels, 16x8 in fp64 and 32x8
// in fp32. This is the only file compiled with -mavx512f (set per-file in
// src/blas/CMakeLists.txt); dispatch.cpp never selects these tables unless
// the cpuid probe reports AVX-512F with OS-enabled ZMM state, so no
// instruction here runs on hardware that cannot execute it.
//
// Only the main microkernel, its tile shape and the Sturm-count entry (in
// sturm_avx512.cpp, for its own compile flags) are new. Everything else --
// level-1, laed4_sums, the 4x8 short-wide kernel, pack_a (whose ymm copy
// covers any tile height that is a whole number of vectors) and pack_b
// (whose 4x4 transposes already cover NR = 8) -- is copied from the AVX2
// tables: those kernels are bound by division or memory traffic, and zmm
// width buys them nothing.
//
// Numerics: each C element gets the same FMA chain as under AVX2. In fp64
// that is one chain over the kc block; in fp32 the AVX2 8x4 kernel splits k
// into an even-step and an odd-step chain and adds them at the end, so the
// 32x8 kernel runs the two chains as two passes over the packed panels and
// adds them the same way. Together with the unchanged kc and small-volume
// cut-off this makes the D&C output bitwise identical under avx2 and
// avx512 (tested at solver level in tests/dc/test_solvers.cpp).
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX512) && defined(DNC_HAVE_AVX2) && defined(__AVX512F__)

#include <immintrin.h>

#include <type_traits>

namespace dnc::blas::simd {
namespace {

// Thin overloads so one template body serves both precisions.
inline __m512d vzero(double) { return _mm512_setzero_pd(); }
inline __m512 vzero(float) { return _mm512_setzero_ps(); }
inline __m512d vload(const double* p) { return _mm512_loadu_pd(p); }
inline __m512 vload(const float* p) { return _mm512_loadu_ps(p); }
inline void vstore(double* p, __m512d v) { _mm512_storeu_pd(p, v); }
inline void vstore(float* p, __m512 v) { _mm512_storeu_ps(p, v); }
inline __m512d vset1(double x) { return _mm512_set1_pd(x); }
inline __m512 vset1(float x) { return _mm512_set1_ps(x); }
inline __m512d vfmadd(__m512d a, __m512d b, __m512d c) { return _mm512_fmadd_pd(a, b, c); }
inline __m512 vfmadd(__m512 a, __m512 b, __m512 c) { return _mm512_fmadd_ps(a, b, c); }

template <typename Real>
constexpr index_t kLanes = 64 / sizeof(Real);
template <typename Real>
struct ZmmOf;
template <>
struct ZmmOf<double> {
  using type = __m512d;
};
template <>
struct ZmmOf<float> {
  using type = __m512;
};
template <typename Real>
using Zmm = typename ZmmOf<Real>::type;

// Applies C[0:rows] = alpha*acc + beta*C[0:rows] for one vector-long chunk
// of a C column, rows <= lanes; the same operations as the AVX2 kernels'
// full-tile update. Masked-off rows are neither read nor written, and
// beta == 0 never reads C at all.
inline void update(double* col, __m512d acc, double alpha, double beta, index_t rows) {
  if (rows <= 0) return;
  const __mmask8 m = rows >= 8 ? __mmask8(0xFF) : __mmask8((1u << rows) - 1u);
  __m512d r = _mm512_mul_pd(acc, _mm512_set1_pd(alpha));
  if (beta == 1.0)
    r = _mm512_add_pd(r, _mm512_maskz_loadu_pd(m, col));
  else if (beta != 0.0)
    r = _mm512_fmadd_pd(_mm512_set1_pd(beta), _mm512_maskz_loadu_pd(m, col), r);
  _mm512_mask_storeu_pd(col, m, r);
}

inline void update(float* col, __m512 acc, float alpha, float beta, index_t rows) {
  if (rows <= 0) return;
  const __mmask16 m = rows >= 16 ? __mmask16(0xFFFF) : __mmask16((1u << rows) - 1u);
  __m512 r = _mm512_mul_ps(acc, _mm512_set1_ps(alpha));
  if (beta == 1.0f)
    r = _mm512_add_ps(r, _mm512_maskz_loadu_ps(m, col));
  else if (beta != 0.0f)
    r = _mm512_fmadd_ps(_mm512_set1_ps(beta), _mm512_maskz_loadu_ps(m, col), r);
  _mm512_mask_storeu_ps(col, m, r);
}

// One FMA chain per element of a (2 x lanes) x 8 tile over the k steps
// p = first, first + Step, ... < kb, written as a dense column-major block.
// 16 zmm accumulators, two A loads and eight B broadcasts per step.
template <typename Real, index_t Step>
void accumulate(index_t kb, index_t first, const Real* ap, const Real* bp, Real* out) {
  constexpr index_t L = kLanes<Real>;
  constexpr index_t MR = 2 * L;
  Zmm<Real> lo[8], hi[8];
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) lo[j] = hi[j] = vzero(Real(0));
  for (index_t p = first; p < kb; p += Step) {
    const Zmm<Real> a0 = vload(ap + p * MR);
    const Zmm<Real> a1 = vload(ap + p * MR + L);
    const Real* brow = bp + p * 8;
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      const Zmm<Real> b = vset1(brow[j]);
      lo[j] = vfmadd(a0, b, lo[j]);
      hi[j] = vfmadd(a1, b, hi[j]);
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    vstore(out + j * MR, lo[j]);
    vstore(out + j * MR + L, hi[j]);
  }
}

// (2 x lanes) x 8 microkernel: 16x8 fp64 with one chain per element, 32x8
// fp32 with the even/odd chain pair of the AVX2 float kernel.
template <typename Real>
void mk_avx512(index_t kb, const Real* ap, const Real* bp, Real alpha, Real beta, Real* c,
               index_t ldc, index_t mr, index_t nr) {
  constexpr index_t L = kLanes<Real>;
  constexpr index_t MR = 2 * L;
  alignas(64) Real acc[MR * 8];
  if constexpr (std::is_same_v<Real, double>) {
    accumulate<Real, 1>(kb, 0, ap, bp, acc);
  } else {
    alignas(64) Real odd[MR * 8];
    accumulate<Real, 2>(kb, 0, ap, bp, acc);
    accumulate<Real, 2>(kb, 1, ap, bp, odd);
    for (index_t i = 0; i < MR * 8; i += L)
      vstore(acc + i, _mm512_add_ps(vload(acc + i), vload(odd + i)));
  }
  for (index_t j = 0; j < nr; ++j) {
    Real* col = c + j * ldc;
    update(col, vload(acc + j * MR), alpha, beta, mr);
    update(col + L, vload(acc + j * MR + L), alpha, beta, mr - L);
  }
}

const KernelTableT<double>& avx2_table(double) { return kAvx2Table; }
const KernelTableT<float>& avx2_table(float) { return kAvx2TableF32; }

template <typename Real>
KernelTableT<Real> make_table() {
  KernelTableT<Real> t = avx2_table(Real(0));
  t.isa = SimdIsa::Avx512;
  t.name = "avx512";
  t.mk = &mk_avx512<Real>;
  t.mr = 2 * kLanes<Real>;
  t.nr = 8;
  t.sturm_counts_ldl = &sturm_counts_ldl_avx512<Real>;
  t.sturm_lanes = 2 * kLanes<Real>;
  return t;
}

}  // namespace

template <>
const KernelTableT<double>& avx512_table<double>() noexcept {
  static const KernelTableT<double> t = make_table<double>();
  return t;
}

template <>
const KernelTableT<float>& avx512_table<float>() noexcept {
  static const KernelTableT<float> t = make_table<float>();
  return t;
}

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX512 && DNC_HAVE_AVX2 && __AVX512F__
