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

#include <string>
#include <vector>

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

/// Cache/socket hierarchy of the machine, for locality-aware stealing: a
/// thief should raid a deque whose owner shares its L3 before crossing the
/// socket interconnect (arXiv 1401.4950 makes the case for MRRR; the same
/// argument applies to any task runtime on a hierarchical multicore).
///
/// Detection reads sysfs (physical_package_id + the L3 id/shared_cpu_list
/// of cache index3); when sysfs is absent (non-Linux, containers with a
/// masked /sys) the topology degrades to one socket / one L3 domain over
/// hardware_concurrency cpus and `detected` stays false. The DNC_TOPOLOGY
/// variable overrides everything -- "SxLxC" (sockets x L3-per-socket x
/// cpus-per-L3, e.g. "2x4x8") builds a synthetic hierarchy, "flat" forces
/// the fallback -- which is also how tests exercise multi-socket victim
/// ordering on a laptop.
struct CpuTopology {
  int cpus = 1;        ///< logical cpus described below
  int sockets = 1;     ///< distinct physical packages
  int l3_domains = 1;  ///< distinct last-level-cache domains
  /// Per-cpu socket index in [0, sockets), size `cpus`.
  std::vector<int> socket_of;
  /// Per-cpu L3-domain index in [0, l3_domains), size `cpus`.
  std::vector<int> l3_of;
  bool detected = false;  ///< true when sysfs (or an override) supplied ids
  std::string source;     ///< "sysfs", "override", or "flat"
};

/// The machine's topology (probed once, cached; DNC_TOPOLOGY wins).
const CpuTopology& cpu_topology() noexcept;

/// Most cpus a DNC_TOPOLOGY spec may describe (sockets x L3 x cpus).
inline constexpr long kMaxTopologyCpus = 65536;

/// Parses a DNC_TOPOLOGY-style spec into `out`: "SxLxC" (sockets x
/// L3-domains-per-socket x cpus-per-L3, each >= 1, product at most
/// kMaxTopologyCpus) or "flat". Returns false (leaving `out` untouched) on
/// anything else.
bool parse_topology_spec(const char* s, CpuTopology& out);

}  // namespace dnc
