// Runtime selection of the kernel tables.
//
// Selection happens once per precision, on the first call to
// kernels_t<Real>(): the hardware probe (common/cpu_features) is clamped by
// the DNC_SIMD environment variable and by what this binary was compiled
// with. Each active table is held in an atomic pointer so ScopedIsaOverride
// (tests/benches) can swap both and restore them without races against
// readers.
#include <atomic>

#include "blas/simd/kernels.hpp"

namespace dnc::blas::simd {
namespace {

std::atomic<const KernelTableT<double>*> g_active_f64{nullptr};
std::atomic<const KernelTableT<float>*> g_active_f32{nullptr};

template <typename Real>
const KernelTableT<Real>* scalar_table() noexcept;
template <>
const KernelTableT<double>* scalar_table<double>() noexcept { return &kScalarTable; }
template <>
const KernelTableT<float>* scalar_table<float>() noexcept { return &kScalarTableF32; }

// The highest table at or below `cap` that this binary carries and the
// host can run. Walking down matters because the probe reports what the
// hardware has, not what was compiled in: an AVX-512 host running a build
// without kernels_avx512.cpp must land on AVX2, not on scalar.
template <typename Real>
const KernelTableT<Real>* table_at_most(SimdIsa cap) noexcept {
  for (int level = static_cast<int>(cap); level > static_cast<int>(SimdIsa::Scalar); --level)
    if (const KernelTableT<Real>* t = kernels_for_t<Real>(static_cast<SimdIsa>(level)))
      return t;
  return scalar_table<Real>();
}

template <typename Real>
const KernelTableT<Real>* select_table() noexcept {
  return table_at_most<Real>(requested_simd_isa());
}

template <typename Real>
const KernelTableT<Real>* active_or_init(std::atomic<const KernelTableT<Real>*>& slot) noexcept {
  const KernelTableT<Real>* t = slot.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  // Benign race: concurrent first calls compute the same answer.
  t = select_table<Real>();
  slot.store(t, std::memory_order_release);
  return t;
}

}  // namespace

template <>
const KernelTableT<double>* kernels_for_t<double>(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Avx512:
#if defined(DNC_HAVE_AVX512)
      if (detect_simd_isa() >= SimdIsa::Avx512) return &avx512_table<double>();
#endif
      return nullptr;
    case SimdIsa::Avx2:
#if defined(DNC_HAVE_AVX2)
      if (detect_simd_isa() >= SimdIsa::Avx2) return &kAvx2Table;
#endif
      return nullptr;
    case SimdIsa::Sse2:
#if defined(DNC_HAVE_SSE2)
      if (detect_simd_isa() >= SimdIsa::Sse2) return &kSse2Table;
#endif
      return nullptr;
    default:
      return &kScalarTable;
  }
}

template <>
const KernelTableT<float>* kernels_for_t<float>(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Avx512:
#if defined(DNC_HAVE_AVX512)
      if (detect_simd_isa() >= SimdIsa::Avx512) return &avx512_table<float>();
#endif
      return nullptr;
    case SimdIsa::Avx2:
#if defined(DNC_HAVE_AVX2)
      if (detect_simd_isa() >= SimdIsa::Avx2) return &kAvx2TableF32;
#endif
      return nullptr;
    case SimdIsa::Sse2:
      // No float SSE2 tier: 2 lanes of extra width over scalar is not
      // worth a third variant. Callers treat nullptr as "use scalar".
      return nullptr;
    default:
      return &kScalarTableF32;
  }
}

template <>
const KernelTableT<double>& kernels_t<double>() noexcept {
  return *active_or_init<double>(g_active_f64);
}

template <>
const KernelTableT<float>& kernels_t<float>() noexcept {
  return *active_or_init<float>(g_active_f32);
}

SimdIsa active_isa() noexcept { return kernels().isa; }

ScopedIsaOverride::ScopedIsaOverride(SimdIsa isa) noexcept
    : saved_f64_(active_or_init<double>(g_active_f64)),
      saved_f32_(active_or_init<float>(g_active_f32)) {
  g_active_f64.store(table_at_most<double>(isa), std::memory_order_release);
  g_active_f32.store(table_at_most<float>(isa), std::memory_order_release);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  g_active_f64.store(saved_f64_, std::memory_order_release);
  g_active_f32.store(saved_f32_, std::memory_order_release);
}

}  // namespace dnc::blas::simd
