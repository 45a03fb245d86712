// Per-task hardware-counter attribution (the "what did the hardware do"
// half of the observability stack).
//
// A ThreadHwc is a per-worker-thread sampler the Scheduler instantiates at
// worker start. Its read() is called immediately before and after every
// task body; the delta lands on TaskNode::hwc and rides the trace exactly
// like the timestamps. Two backends, chosen once per process:
//
//   perf    perf_event_open with one counter group per thread (cycles,
//           instructions, LLC-misses, LLC-references). The hot-path read
//           uses rdpmc through the events' mmap'd seqlock pages when the
//           kernel grants userspace counter access (cap_user_rdpmc), i.e.
//           zero syscalls per task; otherwise a single grouped read()
//           syscall returns all four values.
//   rusage  getrusage(RUSAGE_THREAD) deltas (minor/major faults,
//           voluntary/involuntary context switches). Always available;
//           the graceful degradation for containers, perf_event_paranoid,
//           PMU-less VMs and non-Linux hosts.
//
// The whole layer is off (active() == false, zero overhead on the task
// path beyond one branch) unless the DNC_HWC environment knob asks for it:
//   DNC_HWC unset / "" / "0" / "off"  -> off
//   DNC_HWC=rusage|soft|software      -> force the software fallback
//   anything else (e.g. "1", "perf")  -> try perf, fall back to rusage
// Opening perf events can never abort a solve: every failure path
// degrades, and the backend that actually sampled is recorded on the
// Trace / SolveReport so consumers know what the numbers mean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/trace.hpp"

namespace dnc::obs {

enum class HwcBackend {
  kOff = 0,    ///< sampling disabled (or this thread failed to open)
  kPerf = 1,   ///< perf_event_open hardware counters
  kRusage = 2  ///< getrusage software fallback
};

/// "off" / "perf" / "rusage".
const char* hwc_backend_name(HwcBackend b);

/// Name of counter slot `slot` (0..rt::kHwcSlots-1) under backend `b`:
/// perf  : cycles, instructions, llc_misses, llc_references
/// rusage: minor_faults, major_faults, vol_ctx_switches, invol_ctx_switches
const char* hwc_slot_name(HwcBackend b, int slot);

/// Parses a backend name ("perf" / "rusage"); kOff for anything else.
HwcBackend parse_hwc_backend(const std::string& name);

/// True when DNC_HWC requests sampling. Read per call (getenv) so tests
/// can setenv() mid-process; callers hit this once per worker thread.
bool hwc_requested() noexcept;

/// The backend the process settled on: kOff until the first ThreadHwc
/// opened, then sticky for the life of the process so every worker of
/// every solve samples the same quantities.
HwcBackend hwc_active_backend() noexcept;

/// Per-thread counter sampler; see file comment. Construct on the thread
/// that will be sampled (the perf events are bound to the calling thread).
class ThreadHwc {
 public:
  ThreadHwc();
  ~ThreadHwc();
  ThreadHwc(const ThreadHwc&) = delete;
  ThreadHwc& operator=(const ThreadHwc&) = delete;

  bool active() const noexcept { return backend_ != HwcBackend::kOff; }
  HwcBackend backend() const noexcept { return backend_; }

  /// Fills out[0..kHwcSlots-1] with the current cumulative counter values
  /// for this thread (slots that failed to open stay 0). Deltas of two
  /// read() calls bracket a task. No-op (zero-fill) when !active().
  void read(std::uint64_t out[rt::kHwcSlots]) noexcept;

 private:
  void open_perf() noexcept;
  void close_perf() noexcept;

  HwcBackend backend_ = HwcBackend::kOff;
  int fds_[rt::kHwcSlots] = {-1, -1, -1, -1};
  void* pages_[rt::kHwcSlots] = {nullptr, nullptr, nullptr, nullptr};
  bool rdpmc_ok_ = false;  ///< all open events readable via rdpmc
};

/// Peak resident set size of the process so far, in bytes (VmHWM from
/// /proc/self/status, ru_maxrss fallback). 0 when unavailable.
std::uint64_t current_peak_rss_bytes() noexcept;

/// Per-task-kind aggregate of the trace's hardware-counter deltas.
struct KindHwcTotals {
  std::string kind;
  long tasks = 0;
  double seconds = 0.0;  ///< summed task execution time
  std::uint64_t hwc[rt::kHwcSlots] = {0, 0, 0, 0};
};

/// Sums TraceEvent::hwc per kind (executed events only; kinds with no
/// executed task are omitted). Meaningful only when trace.hwc_backend is
/// non-empty, but safe to call regardless.
std::vector<KindHwcTotals> kind_hwc_totals(const rt::Trace& trace);

// ---------------------------------------------------------------------------
// Roofline analysis: combines the measured per-kind cycle/instruction
// attribution with the solve's algorithmic GEMM FLOP / packed-byte
// counters to place each task kind against the machine roofline -- the
// direct test of the paper's "merges are GEMM-bound" claim.

struct RooflineRow {
  std::string kind;
  long tasks = 0;
  double seconds = 0.0;
  std::uint64_t hwc[rt::kHwcSlots] = {0, 0, 0, 0};
  double share = 0.0;      ///< fraction of total cycles (perf) or busy time
  double ipc = 0.0;        ///< instructions/cycle (perf backend only)
  double miss_rate = 0.0;  ///< LLC misses / references (perf backend only)
  bool has_flops = false;  ///< FLOP attribution available for this kind
  double flops = 0.0;
  double bytes = 0.0;
  double arith_intensity = 0.0;  ///< flops / bytes
  double gflops = 0.0;           ///< flops / seconds
  double pct_of_peak = 0.0;      ///< 100 * gflops / peak
};

struct Roofline {
  HwcBackend backend = HwcBackend::kOff;
  double peak_gflops = 0.0;
  /// How peak_gflops was obtained: "flag" (caller-provided), "derived"
  /// (clock from measured cycles x flops/cycle), "assumed" (3 GHz x
  /// flops/cycle). Derived/assumed roofs use the per-precision SIMD width:
  /// 16 flops/cycle for fp64 kernels, 32 for fp32, twice that when the
  /// trace records the avx512 kernel table.
  std::string peak_source;
  int precision_bits = 64;     ///< working precision the roof was scaled for
  std::string simd_isa;        ///< kernel table the trace records (may be empty)
  double total_seconds = 0.0;  ///< summed busy time across kinds
  std::vector<RooflineRow> rows;
};

/// Builds the per-kind roofline table from a trace whose slices carry hwc
/// deltas. `gemm_flops` / `gemm_bytes` are the solve-wide GEMM totals
/// (obs counters kGemmFlops / kGemmPackedBytes); they are attributed to
/// the kind that runs the GEMM panels ("UpdateVect", falling back to the
/// busiest kind when absent). `peak_gflops` > 0 pins the roof and is taken
/// as the peak FOR THE GIVEN PRECISION (per-precision flag); otherwise the
/// roof is derived from measured cycles or assumed, scaled by the SIMD
/// width of the `precision_bits`-wide kernels (fp32 peak = 2x fp64) and of
/// the kernel table in the trace's "simd_isa" meta string (avx512 = 2x the
/// AVX2 width; absent = AVX2).
Roofline roofline(const rt::Trace& trace, double gemm_flops, double gemm_bytes,
                  double peak_gflops = 0.0, int precision_bits = 64);

/// Renders the roofline as a one-page text table (column set depends on
/// the backend: IPC/miss-rate under perf, fault/context-switch counts
/// under rusage).
std::string render_roofline(const Roofline& r);

}  // namespace dnc::obs
