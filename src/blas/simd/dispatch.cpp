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

template <typename Real>
std::atomic<const KernelTableT<Real>*> g_active{nullptr};

const KernelTableT<double>* scalar_table(double) noexcept { return &kScalarTable; }
const KernelTableT<float>* scalar_table(float) noexcept { return &kScalarTableF32; }
#if defined(DNC_HAVE_AVX2)
const KernelTableT<double>* avx2_table(double) noexcept { return &kAvx2Table; }
const KernelTableT<float>* avx2_table(float) noexcept { return &kAvx2TableF32; }
#endif

// The highest table at or below `cap` that this binary carries and the
// host can run. Walking down matters because the probe reports what the
// hardware has, not what was compiled in: an AVX-512 host running a build
// without kernels_avx512.cpp must land on AVX2, not on scalar.
template <typename Real>
const KernelTableT<Real>* table_at_most(SimdIsa cap) noexcept {
  for (int level = static_cast<int>(cap); level > static_cast<int>(SimdIsa::Scalar); --level)
    if (const KernelTableT<Real>* t = kernels_for_t<Real>(static_cast<SimdIsa>(level)))
      return t;
  return scalar_table(Real(0));
}

template <typename Real>
const KernelTableT<Real>* active_or_init() noexcept {
  const KernelTableT<Real>* t = g_active<Real>.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  // Benign race: concurrent first calls compute the same answer.
  t = table_at_most<Real>(requested_simd_isa());
  g_active<Real>.store(t, std::memory_order_release);
  return t;
}

}  // namespace

template <typename Real>
const KernelTableT<Real>* kernels_for_t(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Avx512:
#if defined(DNC_HAVE_AVX512)
      if (detect_simd_isa() >= SimdIsa::Avx512) return &avx512_table<Real>();
#endif
      return nullptr;
    case SimdIsa::Avx2:
#if defined(DNC_HAVE_AVX2)
      if (detect_simd_isa() >= SimdIsa::Avx2) return avx2_table(Real(0));
#endif
      return nullptr;
    default:
      return scalar_table(Real(0));
  }
}

template <typename Real>
const KernelTableT<Real>& kernels_t() noexcept {
  return *active_or_init<Real>();
}

template const KernelTableT<double>* kernels_for_t<double>(SimdIsa) noexcept;
template const KernelTableT<float>* kernels_for_t<float>(SimdIsa) noexcept;
template const KernelTableT<double>& kernels_t<double>() noexcept;
template const KernelTableT<float>& kernels_t<float>() noexcept;

SimdIsa active_isa() noexcept { return kernels().isa; }

ScopedIsaOverride::ScopedIsaOverride(SimdIsa isa) noexcept
    : saved_f64_(active_or_init<double>()), saved_f32_(active_or_init<float>()) {
  g_active<double>.store(table_at_most<double>(isa), std::memory_order_release);
  g_active<float>.store(table_at_most<float>(isa), std::memory_order_release);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  g_active<double>.store(saved_f64_, std::memory_order_release);
  g_active<float>.store(saved_f32_, std::memory_order_release);
}

}  // namespace dnc::blas::simd
