// Runtime CPU feature probe for the SIMD kernel dispatch.
//
// The kernel layer in src/blas/simd/ compiles several instruction-set
// variants of the hot kernels (scalar always; AVX2+FMA and AVX-512F when
// the build supports them) and picks one at runtime. This header
// answers the runtime half of that question: what does the *hardware*
// support, and did the user force a level via the DNC_SIMD environment
// variable.
//
// The probe itself uses only compiler builtins and two inline-asm
// instructions (cpuid, xgetbv; no intrinsics), so it lives in dnc_common
// and is safe to compile for any target; on non-x86 it simply reports
// Scalar.
#pragma once

namespace dnc {

/// Instruction-set levels the kernel layer distinguishes, in strictly
/// increasing capability order (AVX-512 implies AVX2 implies scalar).
enum class SimdIsa : int {
  Scalar = 0,  ///< portable C++ (always available)
  Avx2 = 1,    ///< 256-bit vectors + FMA
  Avx512 = 2,  ///< 512-bit vectors (AVX-512F) for the GEMM microkernels
};

/// Best level the *hardware* supports (cpuid probe; cached after first call).
/// Avx2 is only reported when FMA is also present -- the AVX2 kernels use it.
/// Avx512 additionally needs AVX-512F and an OS that saves the opmask and
/// ZMM register state (XCR0 bits 5-7), read directly with xgetbv.
SimdIsa detect_simd_isa() noexcept;

/// Parses a DNC_SIMD-style override string ("scalar"/"off"/"none", "avx2",
/// "avx512").
/// Returns true and sets `out` on a recognised value, false otherwise.
bool parse_simd_isa(const char* s, SimdIsa& out) noexcept;

/// Level requested via the DNC_SIMD environment variable, clamped to what
/// detect_simd_isa() reports (requesting avx512 on an AVX2 machine, or avx2
/// on a non-AVX2 one, degrades safely). Returns detect_simd_isa() when the
/// variable is unset/unparsable.
SimdIsa requested_simd_isa() noexcept;

/// Human-readable name ("scalar", "avx2", "avx512").
const char* simd_isa_name(SimdIsa isa) noexcept;

}  // namespace dnc
