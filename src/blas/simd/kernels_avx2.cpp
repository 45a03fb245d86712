// AVX2 + FMA kernel tables: 256-bit vectors of 4 doubles or 8 floats,
// fused multiply-add. This file is compiled with -mavx2 -mfma (set per-file
// in src/blas/CMakeLists.txt) and is only added to the build on x86 targets
// with DNC_ENABLE_SIMD=ON; dispatch.cpp never selects it unless the cpuid
// probe reports both AVX2 and FMA, so no instruction here runs on hardware
// that cannot execute it.
//
// Every entry but one is a kernel_body.hpp body instantiated over the
// vec_avx2.hpp interfaces: the level-1, laed4_sums and pack_a loops, and
// the four microkernels -- 8x4 and 4x8 in fp64 (8 independent FMA chains
// each, enough to hide FMA latency on any AVX2 core), 8x4 in fp32 (one
// vector covers the 8 rows, so the even- and odd-k chain pair restores 8
// chains) and the xmm 4x8 in fp32. The exception is the fp64 pack_b, which
// transposes 4x4 blocks in registers.
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include "blas/simd/kernel_body.hpp"
#include "blas/simd/vec_avx2.hpp"

namespace dnc::blas::simd {
namespace {

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

// Full untransposed tiles of op(B) = B whose width is a multiple of 4: dst
// rows are B columns, a k x NR transpose done 4 k-steps at a time with
// in-register 4x4 transposes; the remaining k-steps and every other case
// take the plain loops.
void pack_b_avx2(const double* b, index_t ldb, bool trans, index_t p0, index_t kb, index_t j0,
                 index_t nr, double* dst, index_t NR) {
  index_t p = 0;
  if (!trans && nr == NR && NR % 4 == 0) {
    for (; p + 4 <= kb; p += 4) {
      const double* base = b + (p0 + p);
      for (index_t j4 = 0; j4 < NR; j4 += 4) {
        const double* col = base + (j0 + j4) * ldb;
        __m256d r0, r1, r2, r3;
        transpose4(F64x4::load(col), F64x4::load(col + ldb), F64x4::load(col + 2 * ldb),
                   F64x4::load(col + 3 * ldb), r0, r1, r2, r3);
        double* out = dst + p * NR + j4;
        F64x4::store(out, r0);
        F64x4::store(out + NR, r1);
        F64x4::store(out + 2 * NR, r2);
        F64x4::store(out + 3 * NR, r3);
      }
    }
  }
  pack_b_loop<F64x4>(b, ldb, trans, p0 + p, kb - p, j0, nr, dst + p * NR, NR);
}

}  // namespace

const KernelTable kAvx2Table = {
    SimdIsa::Avx2,
    "avx2",
    &microkernel_vec<F64x4, 2, 4, 1>,
    8,
    4,
    &microkernel_vec<F64x4, 1, 8, 1>,
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
    &twisted_ldl_avx2<double>,
    8,
};

const KernelTableT<float> kAvx2TableF32 = {
    SimdIsa::Avx2,
    "avx2",
    &microkernel_vec<F32x8, 1, 4, 2>,
    8,
    4,
    &microkernel_vec<F32x4, 1, 8, 1>,
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
    &twisted_ldl_avx2<float>,
    16,
};

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX2 && __AVX2__ && __FMA__
