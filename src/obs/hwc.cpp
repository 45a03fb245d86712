#include "obs/hwc.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/env.hpp"
#include "obs/report.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace dnc::obs {
namespace {

// The four hardware events of the perf group, slot order fixed by the
// header contract. CACHE_MISSES / CACHE_REFERENCES are the kernel's
// "LLC miss / reference" generalized events.
#if defined(__linux__)
constexpr std::uint64_t kPerfConfig[rt::kHwcSlots] = {
    PERF_COUNT_HW_CPU_CYCLES,
    PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_MISSES,
    PERF_COUNT_HW_CACHE_REFERENCES,
};
#endif

const char* kPerfSlotNames[rt::kHwcSlots] = {"cycles", "instructions", "llc_misses",
                                             "llc_references"};
const char* kRusageSlotNames[rt::kHwcSlots] = {"minor_faults", "major_faults",
                                               "vol_ctx_switches", "invol_ctx_switches"};

// Process-wide sticky backend decision (see hwc_active_backend). 0 = not
// yet decided; otherwise holds a HwcBackend value.
std::atomic<int> g_backend{-1};

enum class HwcRequest { kOff, kPerf, kRusage };

HwcRequest parse_request(const char* v) {
  if (!v || !*v) return HwcRequest::kOff;
  if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) return HwcRequest::kOff;
  if (std::strcmp(v, "rusage") == 0 || std::strcmp(v, "soft") == 0 ||
      std::strcmp(v, "software") == 0)
    return HwcRequest::kRusage;
  return HwcRequest::kPerf;  // "1", "on", "perf", ...
}

#if defined(__linux__)
int perf_event_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                    unsigned long flags) {
  return static_cast<int>(::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags));
}

#if defined(__x86_64__) || defined(__i386__)
// Seqlock read of one event through its mmap'd page: rdpmc of the hardware
// counter plus the kernel-maintained offset, no syscall. Only called when
// the page advertised cap_user_rdpmc at open time.
std::uint64_t rdpmc_read(const volatile perf_event_mmap_page* pc) noexcept {
  std::uint32_t seq;
  std::uint64_t count;
  do {
    seq = pc->lock;
    __sync_synchronize();
    const std::uint32_t idx = pc->index;
    count = pc->offset;
    if (idx) {
      const std::uint64_t pmc = _rdpmc(idx - 1);
      const int shift = 64 - pc->pmc_width;
      // Sign-extend the partial-width counter before adding the offset.
      count += static_cast<std::uint64_t>(
          static_cast<std::int64_t>(pmc << shift) >> shift);
    }
    __sync_synchronize();
  } while (pc->lock != seq);
  return count;
}
#endif  // x86
#endif  // __linux__

}  // namespace

const char* hwc_backend_name(HwcBackend b) {
  switch (b) {
    case HwcBackend::kPerf: return "perf";
    case HwcBackend::kRusage: return "rusage";
    case HwcBackend::kOff: break;
  }
  return "off";
}

const char* hwc_slot_name(HwcBackend b, int slot) {
  if (slot < 0 || slot >= rt::kHwcSlots) return "";
  switch (b) {
    case HwcBackend::kPerf: return kPerfSlotNames[slot];
    case HwcBackend::kRusage: return kRusageSlotNames[slot];
    case HwcBackend::kOff: break;
  }
  return "";
}

HwcBackend parse_hwc_backend(const std::string& name) {
  if (name == "perf") return HwcBackend::kPerf;
  if (name == "rusage") return HwcBackend::kRusage;
  return HwcBackend::kOff;
}

bool hwc_requested() noexcept {
  return parse_request(env::raw("DNC_HWC")) != HwcRequest::kOff;
}

HwcBackend hwc_active_backend() noexcept {
  const int b = g_backend.load(std::memory_order_acquire);
  return b < 0 ? HwcBackend::kOff : static_cast<HwcBackend>(b);
}

// ---------------------------------------------------------------------------
// ThreadHwc

ThreadHwc::ThreadHwc() {
  const HwcRequest req = parse_request(env::raw("DNC_HWC"));
  if (req == HwcRequest::kOff) return;

  // Process-wide consistency: exactly one thread probes (under call_once,
  // so concurrently-constructing workers wait for the verdict instead of
  // racing to diverging decisions) and publishes the backend; every other
  // thread follows it. Mixing perf cycles with rusage fault counts in one
  // trace would be meaningless.
  static std::once_flag probe_once;
  std::call_once(probe_once, [&] {
    if (req == HwcRequest::kPerf) open_perf();
    if (backend_ != HwcBackend::kPerf) backend_ = HwcBackend::kRusage;
    g_backend.store(static_cast<int>(backend_), std::memory_order_release);
  });
  if (backend_ != HwcBackend::kOff) return;  // this thread ran the probe

  switch (hwc_active_backend()) {
    case HwcBackend::kPerf:
      // If perf worked for the probing thread but fails here (e.g. fd
      // exhaustion), this thread stays inactive rather than sampling
      // incomparable numbers under a different backend.
      open_perf();
      break;
    case HwcBackend::kRusage:
      backend_ = HwcBackend::kRusage;
      break;
    case HwcBackend::kOff:
      break;
  }
}

ThreadHwc::~ThreadHwc() { close_perf(); }

void ThreadHwc::open_perf() noexcept {
#if defined(__linux__)
  perf_event_attr attr;
  for (int i = 0; i < rt::kHwcSlots; ++i) {
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kPerfConfig[i];
    // One leader read() must return every member as {nr, values[nr]}.
    attr.read_format = PERF_FORMAT_GROUP;
    attr.disabled = (i == 0) ? 1 : 0;  // group starts disabled, enabled once complete
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const int group = (i == 0) ? -1 : fds_[0];
    fds_[i] = perf_event_open(&attr, 0 /* this thread */, -1 /* any cpu */, group, 0);
    if (i == 0 && fds_[0] < 0) return;  // leader failed: no perf at all
    // A failed non-leader slot (e.g. no LLC events on this machine) is
    // tolerated: its deltas stay 0 and the other slots keep working.
  }

  rdpmc_ok_ = false;
#if defined(__x86_64__) || defined(__i386__)
  // Map each open event's counter page; rdpmc is only usable if every open
  // event grants it (otherwise the single grouped read() is used for all).
  bool all_caps = true;
  for (int i = 0; i < rt::kHwcSlots; ++i) {
    if (fds_[i] < 0) continue;
    void* p = ::mmap(nullptr, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)),
                     PROT_READ, MAP_SHARED, fds_[i], 0);
    if (p == MAP_FAILED) {
      all_caps = false;
      continue;
    }
    pages_[i] = p;
    const auto* pc = static_cast<const volatile perf_event_mmap_page*>(p);
    // Only the capability bit matters here: the group is still disabled, so
    // index is 0 for every event at this point. rdpmc_read() handles a
    // transiently-unscheduled event (index == 0) through the seqlock.
    if (!pc->cap_user_rdpmc) all_caps = false;
  }
  rdpmc_ok_ = all_caps;
#endif

  ::ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  backend_ = HwcBackend::kPerf;
#endif  // __linux__
}

void ThreadHwc::close_perf() noexcept {
#if defined(__linux__)
  const long page = ::sysconf(_SC_PAGESIZE);
  for (int i = 0; i < rt::kHwcSlots; ++i) {
    if (pages_[i]) ::munmap(pages_[i], static_cast<std::size_t>(page));
    if (fds_[i] >= 0) ::close(fds_[i]);
    pages_[i] = nullptr;
    fds_[i] = -1;
  }
#endif
}

void ThreadHwc::read(std::uint64_t out[rt::kHwcSlots]) noexcept {
  for (int i = 0; i < rt::kHwcSlots; ++i) out[i] = 0;
  if (backend_ == HwcBackend::kRusage) {
#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
    rusage ru;
#if defined(RUSAGE_THREAD)
    if (::getrusage(RUSAGE_THREAD, &ru) != 0) return;
#else
    if (::getrusage(RUSAGE_SELF, &ru) != 0) return;
#endif
    out[0] = static_cast<std::uint64_t>(ru.ru_minflt);
    out[1] = static_cast<std::uint64_t>(ru.ru_majflt);
    out[2] = static_cast<std::uint64_t>(ru.ru_nvcsw);
    out[3] = static_cast<std::uint64_t>(ru.ru_nivcsw);
#endif
    return;
  }
  if (backend_ != HwcBackend::kPerf) return;
#if defined(__linux__)
#if defined(__x86_64__) || defined(__i386__)
  if (rdpmc_ok_) {
    for (int i = 0; i < rt::kHwcSlots; ++i)
      if (pages_[i])
        out[i] = rdpmc_read(static_cast<const volatile perf_event_mmap_page*>(pages_[i]));
    return;
  }
#endif
  // Grouped read: one syscall returns every member's value in open order
  // (failed slots were never added to the group, so values are dense --
  // walk the open fds in slot order to scatter them back).
  struct {
    std::uint64_t nr;
    std::uint64_t values[rt::kHwcSlots];
  } data{};
  const ssize_t r = ::read(fds_[0], &data, sizeof data);
  // The PERF_FORMAT_GROUP layout is {nr, values[nr]}: require the read to
  // cover every value it claims before scattering.
  if (r < static_cast<ssize_t>(sizeof(std::uint64_t)) || data.nr > rt::kHwcSlots ||
      r < static_cast<ssize_t>((data.nr + 1) * sizeof(std::uint64_t)))
    return;
  std::uint64_t v = 0;
  for (int i = 0; i < rt::kHwcSlots; ++i) {
    if (fds_[i] < 0) continue;
    if (v < data.nr) out[i] = data.values[v++];
  }
#endif
}

// ---------------------------------------------------------------------------
// Peak RSS

std::uint64_t current_peak_rss_bytes() noexcept {
#if defined(__linux__)
  // VmHWM is the per-process high-water mark in kB; preferred because
  // ru_maxrss semantics vary across kernels.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        std::fclose(f);
        return static_cast<std::uint64_t>(std::strtoull(line + 6, nullptr, 10)) * 1024u;
      }
    }
    std::fclose(f);
  }
#endif
#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
  rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;  // kB elsewhere
#endif
  }
#endif
  return 0;
}

// ---------------------------------------------------------------------------
// Aggregation + roofline

std::vector<KindHwcTotals> kind_hwc_totals(const rt::Trace& trace) {
  std::vector<KindHwcTotals> acc(trace.kind_names.size());
  for (std::size_t k = 0; k < trace.kind_names.size(); ++k) acc[k].kind = trace.kind_names[k];
  for (const auto& e : trace.events) {
    if (e.worker < 0) continue;
    if (e.kind < 0 || e.kind >= static_cast<int>(acc.size())) continue;
    KindHwcTotals& t = acc[e.kind];
    ++t.tasks;
    t.seconds += e.t_end - e.t_start;
    for (int i = 0; i < rt::kHwcSlots; ++i) t.hwc[i] += e.hwc[i];
  }
  std::vector<KindHwcTotals> out;
  for (auto& t : acc)
    if (t.tasks > 0) out.push_back(std::move(t));
  return out;
}

Roofline roofline(const rt::Trace& trace, const SolveReport* report, double peak_gflops) {
  Roofline r;
  r.backend = parse_hwc_backend(trace.hwc_backend);
  double gemm_flops = 0.0, gemm_bytes = 0.0;
  if (report) {
    r.has_report = true;
    r.precision_bits = report->precision_bits();
    r.simd_isa = report->simd_isa;
    gemm_flops = static_cast<double>(report->counter(kGemmFlops));
    gemm_bytes = static_cast<double>(report->counter(kGemmPackedBytes));
  }

  const std::vector<KindHwcTotals> kinds = kind_hwc_totals(trace);
  double total_cycles = 0.0, total_seconds = 0.0;
  for (const auto& k : kinds) {
    total_cycles += static_cast<double>(k.hwc[0]);
    total_seconds += k.seconds;
  }
  r.total_seconds = total_seconds;

  // The roof. A caller-provided peak wins (and is read as the peak for the
  // trace's precision); with measured cycles the clock falls out of the
  // data (cycles / busy-seconds across all workers) and the width is the
  // widest FMA pipe the dispatched kernel table targets at the recorded
  // precision (AVX2 fp64: 2 FMA/cycle x 4 lanes x 2 flops = 16
  // flops/cycle; fp32 doubles the lanes to 32; the avx512 table doubles
  // both again). The table comes from the report's simd_isa; without a
  // report the trace is read at AVX2 width. Without measured cycles a
  // nominal 3 GHz clock is assumed and flagged.
  const double kFlopsPerCycle =
      (r.precision_bits == 32 ? 32.0 : 16.0) * (r.simd_isa == "avx512" ? 2.0 : 1.0);
  if (peak_gflops > 0.0) {
    r.peak_gflops = peak_gflops;
    r.peak_source = "flag";
  } else if (r.backend == HwcBackend::kPerf && total_cycles > 0.0 && total_seconds > 0.0) {
    r.peak_gflops = (total_cycles / total_seconds) * kFlopsPerCycle * 1e-9;
    r.peak_source = "derived";
  } else {
    r.peak_gflops = 3.0e9 * kFlopsPerCycle * 1e-9;
    r.peak_source = "assumed";
  }

  // FLOP attribution: the solve-wide GEMM counters belong to the kind that
  // runs the eigenvector update panels. Fall back to the busiest kind for
  // traces without an UpdateVect (e.g. synthetic graphs).
  std::size_t gemm_row = kinds.size();
  for (std::size_t i = 0; i < kinds.size(); ++i)
    if (kinds[i].kind == "UpdateVect") gemm_row = i;
  if (gemm_row == kinds.size() && gemm_flops > 0.0) {
    double best = -1.0;
    for (std::size_t i = 0; i < kinds.size(); ++i)
      if (kinds[i].seconds > best) {
        best = kinds[i].seconds;
        gemm_row = i;
      }
  }

  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const KindHwcTotals& k = kinds[i];
    RooflineRow row;
    row.kind = k.kind;
    row.tasks = k.tasks;
    row.seconds = k.seconds;
    for (int s = 0; s < rt::kHwcSlots; ++s) row.hwc[s] = k.hwc[s];
    if (r.backend == HwcBackend::kPerf) {
      row.share = total_cycles > 0.0 ? static_cast<double>(k.hwc[0]) / total_cycles : 0.0;
      row.ipc = k.hwc[0] > 0 ? static_cast<double>(k.hwc[1]) / static_cast<double>(k.hwc[0])
                             : 0.0;
      row.miss_rate = k.hwc[3] > 0
                          ? static_cast<double>(k.hwc[2]) / static_cast<double>(k.hwc[3])
                          : 0.0;
    } else {
      row.share = total_seconds > 0.0 ? k.seconds / total_seconds : 0.0;
    }
    if (i == gemm_row && gemm_flops > 0.0) {
      row.has_flops = true;
      row.flops = gemm_flops;
      row.bytes = gemm_bytes;
      row.arith_intensity = gemm_bytes > 0.0 ? gemm_flops / gemm_bytes : 0.0;
      row.gflops = k.seconds > 0.0 ? gemm_flops / k.seconds * 1e-9 : 0.0;
      row.pct_of_peak = r.peak_gflops > 0.0 ? 100.0 * row.gflops / r.peak_gflops : 0.0;
    }
    r.rows.push_back(std::move(row));
  }
  // Largest share first: the bound kind leads the table.
  std::sort(r.rows.begin(), r.rows.end(),
            [](const RooflineRow& a, const RooflineRow& b) { return a.share > b.share; });
  return r;
}

std::string render_roofline(const Roofline& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "roofline (backend %s, fp%d, peak %.1f GF/s [%s, %s width])\n",
                hwc_backend_name(r.backend), r.precision_bits, r.peak_gflops,
                r.peak_source.c_str(), r.simd_isa == "avx512" ? "avx512" : "avx2");
  out += buf;
  const bool perf = r.backend == HwcBackend::kPerf;
  if (perf)
    std::snprintf(buf, sizeof buf, "%-22s %7s %10s %7s %6s %6s %8s %8s %7s\n", "kind", "tasks",
                  "time(s)", "share", "IPC", "miss%", "AI(F/B)", "GF/s", "%peak");
  else
    std::snprintf(buf, sizeof buf, "%-22s %7s %10s %7s %8s %6s %8s %8s %8s %7s\n", "kind",
                  "tasks", "time(s)", "share", "minflt", "majflt", "ctxsw", "AI(F/B)", "GF/s",
                  "%peak");
  out += buf;
  for (const RooflineRow& row : r.rows) {
    char ai[16] = "-", gf[16] = "-", pk[16] = "-";
    if (row.has_flops) {
      std::snprintf(ai, sizeof ai, "%.2f", row.arith_intensity);
      std::snprintf(gf, sizeof gf, "%.2f", row.gflops);
      std::snprintf(pk, sizeof pk, "%.1f", row.pct_of_peak);
    }
    if (perf) {
      std::snprintf(buf, sizeof buf, "%-22s %7ld %10.6f %6.1f%% %6.2f %5.1f%% %8s %8s %7s\n",
                    row.kind.c_str(), row.tasks, row.seconds, 100.0 * row.share, row.ipc,
                    100.0 * row.miss_rate, ai, gf, pk);
    } else {
      std::snprintf(buf, sizeof buf,
                    "%-22s %7ld %10.6f %6.1f%% %8llu %6llu %8llu %8s %8s %7s\n",
                    row.kind.c_str(), row.tasks, row.seconds, 100.0 * row.share,
                    static_cast<unsigned long long>(row.hwc[0]),
                    static_cast<unsigned long long>(row.hwc[1]),
                    static_cast<unsigned long long>(row.hwc[2] + row.hwc[3]), ai, gf, pk);
    }
    out += buf;
  }
  if (r.backend != HwcBackend::kPerf)
    out += "(rusage backend: no cycle/instruction attribution; GF/s uses wall time. "
           "Run with perf access for IPC and miss rates.)\n";
  if (!r.has_report)
    out += "(no SolveReport on this trace: no GEMM FLOP attribution; "
           "the roof assumes fp64 kernels at AVX2 width)\n";
  return out;
}

}  // namespace dnc::obs
