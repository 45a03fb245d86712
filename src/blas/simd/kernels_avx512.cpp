// AVX-512 kernel tables: the kernel_body.hpp microkernel over the
// vec_avx512.hpp interfaces as a 16x8 fp64 and a 32x8 fp32 main tile. Only
// this file and sturm_avx512.cpp are compiled with -mavx512f (set per-file
// in src/blas/CMakeLists.txt); dispatch.cpp selects these tables only when
// the cpuid probe reports AVX-512F with OS-enabled ZMM state.
//
// Only the main microkernel, its tile shape and the two LDL^T entries
// (Sturm counts, twisted factorizations) are new. Everything else -- level-1, laed4_sums, the 4x8 kernel, pack_a and
// pack_b (whose 4x4 transposes cover NR = 8) -- is copied from the AVX2
// tables: those kernels are bound by division or memory traffic, and zmm
// width buys them nothing.
//
// Each C element gets the AVX2 kernels' FMA chains: one in fp64, the
// even/odd-k pair in fp32. With the unchanged kc and small-volume cut-off
// this keeps the D&C output bitwise identical under avx2 and avx512
// (tested at solver level in tests/dc/test_solvers.cpp).
#include "blas/simd/kernels.hpp"

#if defined(DNC_HAVE_AVX512) && defined(DNC_HAVE_AVX2) && defined(__AVX512F__)

#include "blas/simd/kernel_body.hpp"
#include "blas/simd/vec_avx512.hpp"

namespace dnc::blas::simd {
namespace {

template <typename Real>
KernelTableT<Real> make_table(const KernelTableT<Real>& avx2) {
  using V = Zmm<Real>;
  constexpr index_t kChains = sizeof(Real) == sizeof(float) ? 2 : 1;  // as the AVX2 8x4
  KernelTableT<Real> t = avx2;
  t.isa = SimdIsa::Avx512;
  t.name = "avx512";
  t.mk = &microkernel_vec<V, 2, 8, kChains>;
  t.mr = 2 * V::kLanes;
  t.nr = 8;
  t.sturm_counts_ldl = &sturm_counts_ldl_avx512<Real>;
  t.twisted_ldl = &twisted_ldl_avx512<Real>;
  t.sturm_lanes = 2 * V::kLanes;
  return t;
}

}  // namespace

template <>
const KernelTableT<double>& avx512_table<double>() noexcept {
  static const KernelTableT<double> t = make_table(kAvx2Table);
  return t;
}

template <>
const KernelTableT<float>& avx512_table<float>() noexcept {
  static const KernelTableT<float> t = make_table(kAvx2TableF32);
  return t;
}

}  // namespace dnc::blas::simd

#endif  // DNC_HAVE_AVX512 && DNC_HAVE_AVX2 && __AVX512F__
