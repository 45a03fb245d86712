#include "common/cpu_features.hpp"

#include <cstring>

#include "common/env.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

namespace dnc {
namespace {

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
/// True when the OS has enabled XSAVE management of the SSE, AVX, opmask and
/// both ZMM state components (XCR0 & 0xE6 == 0xE6). Without it the AVX-512
/// registers are not preserved across context switches, whatever cpuid says
/// about the silicon. The xgetbv is guarded by CPUID.1:ECX.OSXSAVE, without
/// which the instruction faults.
bool os_saves_zmm_state() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_OSXSAVE) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned kSseAvxOpmaskZmm = 0x2u | 0x4u | 0x20u | 0x40u | 0x80u;
  return (xcr0_lo & kSseAvxOpmaskZmm) == kSseAvxOpmaskZmm;
}
#endif

SimdIsa probe_hardware() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  // The AVX-512 table reuses the AVX2 entries for its level-1 kernels, so
  // it needs the AVX2 level as well.
  if (avx2 && __builtin_cpu_supports("avx512f") && os_saves_zmm_state()) return SimdIsa::Avx512;
  return avx2 ? SimdIsa::Avx2 : SimdIsa::Scalar;
#else
  return SimdIsa::Scalar;
#endif
}

}  // namespace

SimdIsa detect_simd_isa() noexcept {
  static const SimdIsa isa = probe_hardware();
  return isa;
}

bool parse_simd_isa(const char* s, SimdIsa& out) noexcept {
  if (s == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0 || std::strcmp(s, "off") == 0 ||
      std::strcmp(s, "none") == 0) {
    out = SimdIsa::Scalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    out = SimdIsa::Avx2;
    return true;
  }
  if (std::strcmp(s, "avx512") == 0) {
    out = SimdIsa::Avx512;
    return true;
  }
  return false;
}

SimdIsa requested_simd_isa() noexcept {
  const SimdIsa hw = detect_simd_isa();
  SimdIsa req;
  if (!parse_simd_isa(env::raw("DNC_SIMD"), req)) return hw;
  return static_cast<int>(req) < static_cast<int>(hw) ? req : hw;
}

const char* simd_isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Avx2:
      return "avx2";
    case SimdIsa::Avx512:
      return "avx512";
    default:
      return "scalar";
  }
}

}  // namespace dnc
