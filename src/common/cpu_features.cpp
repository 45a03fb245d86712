#include "common/cpu_features.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <system_error>
#include <thread>

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

namespace {

/// Reads the first integer out of a sysfs file; -1 on any failure.
int read_sysfs_int(const char* path) noexcept {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return -1;
  int v = -1;
  const int got = std::fscanf(f, "%d", &v);
  std::fclose(f);
  return got == 1 ? v : -1;
}

/// Flat fallback: one socket, one L3 domain, hardware_concurrency cpus.
CpuTopology flat_topology() {
  CpuTopology t;
  const unsigned hc = std::thread::hardware_concurrency();
  t.cpus = hc > 0 ? static_cast<int>(hc) : 1;
  t.sockets = 1;
  t.l3_domains = 1;
  t.socket_of.assign(static_cast<std::size_t>(t.cpus), 0);
  t.l3_of.assign(static_cast<std::size_t>(t.cpus), 0);
  t.detected = false;
  t.source = "flat";
  return t;
}

CpuTopology probe_topology() {
  if (const char* spec = env::raw("DNC_TOPOLOGY")) {
    CpuTopology t;
    if (parse_topology_spec(spec, t)) return t;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  const int ncpu = hc > 0 ? static_cast<int>(hc) : 1;
  CpuTopology t;
  t.cpus = ncpu;
  t.socket_of.assign(static_cast<std::size_t>(ncpu), 0);
  t.l3_of.assign(static_cast<std::size_t>(ncpu), 0);
  // Raw sysfs ids are arbitrary (L3 ids are globally unique on AMD,
  // per-socket on some Intel parts); densify both through maps.
  std::map<int, int> socket_ids;
  std::map<long long, int> l3_ids;
  bool any = false;
  char path[160];
  for (int c = 0; c < ncpu; ++c) {
    std::snprintf(path, sizeof path,
                  "/sys/devices/system/cpu/cpu%d/topology/physical_package_id", c);
    const int pkg = read_sysfs_int(path);
    std::snprintf(path, sizeof path, "/sys/devices/system/cpu/cpu%d/cache/index3/id", c);
    int l3 = read_sysfs_int(path);
    if (pkg < 0 && l3 < 0) continue;  // cpu hotplugged out or sysfs masked
    any = true;
    const int pkg_key = pkg >= 0 ? pkg : 0;
    const auto si = socket_ids.emplace(pkg_key, static_cast<int>(socket_ids.size()));
    t.socket_of[static_cast<std::size_t>(c)] = si.first->second;
    // Disambiguate per-socket L3 ids by pairing them with the socket; an
    // absent index3 (no L3 exposed) collapses to one domain per socket.
    const long long l3_key =
        (static_cast<long long>(pkg_key) << 32) | static_cast<unsigned>(l3 >= 0 ? l3 : 0);
    const auto li = l3_ids.emplace(l3_key, static_cast<int>(l3_ids.size()));
    t.l3_of[static_cast<std::size_t>(c)] = li.first->second;
  }
  if (!any) return flat_topology();
  t.sockets = std::max<int>(1, static_cast<int>(socket_ids.size()));
  t.l3_domains = std::max<int>(1, static_cast<int>(l3_ids.size()));
  t.detected = true;
  t.source = "sysfs";
  return t;
}

}  // namespace

bool parse_topology_spec(const char* s, CpuTopology& out) {
  if (s == nullptr || *s == '\0') return false;
  if (std::strcmp(s, "flat") == 0) {
    out = flat_topology();
    return true;
  }
  // Three positive factors "SxLxC"; each is parsed on its own and the
  // product is bounded before anything is sized by it.
  long dims[3] = {0, 0, 0};
  const char* p = s;
  const char* const end = s + std::strlen(s);
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      if (p == end || *p != 'x') return false;
      ++p;
    }
    const auto [next, ec] = std::from_chars(p, end, dims[i]);
    if (ec != std::errc() || dims[i] < 1 || dims[i] > kMaxTopologyCpus) return false;
    p = next;
  }
  if (p != end || dims[0] * dims[1] * dims[2] > kMaxTopologyCpus) return false;
  const int sockets = static_cast<int>(dims[0]);
  const int l3_per_socket = static_cast<int>(dims[1]);
  const int cpus_per_l3 = static_cast<int>(dims[2]);
  CpuTopology t;
  t.sockets = sockets;
  t.l3_domains = sockets * l3_per_socket;
  t.cpus = t.l3_domains * cpus_per_l3;
  t.socket_of.resize(static_cast<std::size_t>(t.cpus));
  t.l3_of.resize(static_cast<std::size_t>(t.cpus));
  for (int c = 0; c < t.cpus; ++c) {
    t.l3_of[static_cast<std::size_t>(c)] = c / cpus_per_l3;
    t.socket_of[static_cast<std::size_t>(c)] = c / (cpus_per_l3 * l3_per_socket);
  }
  t.detected = true;
  t.source = "override";
  out = std::move(t);
  return true;
}

const CpuTopology& cpu_topology() noexcept {
  static const CpuTopology topo = probe_topology();
  return topo;
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
