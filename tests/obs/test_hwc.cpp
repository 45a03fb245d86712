// Hardware-counter attribution layer (obs/hwc): backend selection and
// graceful degradation, per-thread sampling, end-to-end threading of the
// counter deltas through Trace -> SolveReport -> Perfetto export ->
// trace_io reload, the peak-RSS telemetry, and the roofline analysis.
//
// Every test that activates sampling forces DNC_HWC=rusage: the software
// fallback exists on every host (perf availability varies by container /
// paranoid setting), and the backend decision is process-sticky, so one
// deterministic choice keeps whole-binary runs (the *_scalar_dispatch
// ctest entries) order-independent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/hwc.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/trace_io.hpp"
#include "runtime/trace.hpp"

namespace dnc {
namespace {

class HwcTest : public ::testing::Test {
 protected:
  void SetUp() override { ::setenv("DNC_HWC", "rusage", 1); }
  void TearDown() override {
    ::unsetenv("DNC_HWC");
    ::unsetenv("DNC_TRACE");
  }

  dc::SolveStats run_solve(index_t n = 300) {
    matgen::Tridiag t = matgen::table3_matrix(10, n);
    Matrix v;
    dc::SolveStats st;
    dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, {}, &st, {});
    return st;
  }
};

TEST(HwcNames, BackendAndSlotNames) {
  EXPECT_STREQ(obs::hwc_backend_name(obs::HwcBackend::kPerf), "perf");
  EXPECT_STREQ(obs::hwc_backend_name(obs::HwcBackend::kRusage), "rusage");
  EXPECT_STREQ(obs::hwc_backend_name(obs::HwcBackend::kOff), "off");
  EXPECT_STREQ(obs::hwc_slot_name(obs::HwcBackend::kPerf, 0), "cycles");
  EXPECT_STREQ(obs::hwc_slot_name(obs::HwcBackend::kPerf, 1), "instructions");
  EXPECT_STREQ(obs::hwc_slot_name(obs::HwcBackend::kRusage, 0), "minor_faults");
  EXPECT_STREQ(obs::hwc_slot_name(obs::HwcBackend::kRusage, 3), "invol_ctx_switches");
  EXPECT_STREQ(obs::hwc_slot_name(obs::HwcBackend::kRusage, rt::kHwcSlots), "");
  EXPECT_EQ(obs::parse_hwc_backend("perf"), obs::HwcBackend::kPerf);
  EXPECT_EQ(obs::parse_hwc_backend("rusage"), obs::HwcBackend::kRusage);
  EXPECT_EQ(obs::parse_hwc_backend(""), obs::HwcBackend::kOff);
}

TEST(HwcOff, InactiveWithoutEnv) {
  ::unsetenv("DNC_HWC");
  EXPECT_FALSE(obs::hwc_requested());
  obs::ThreadHwc hwc;
  EXPECT_FALSE(hwc.active());
  std::uint64_t out[rt::kHwcSlots] = {7, 7, 7, 7};
  hwc.read(out);  // must zero-fill, not leave stale values
  for (int i = 0; i < rt::kHwcSlots; ++i) EXPECT_EQ(out[i], 0u);
}

TEST_F(HwcTest, RusageSamplerIsActiveAndMonotonic) {
  EXPECT_TRUE(obs::hwc_requested());
  obs::ThreadHwc hwc;
  ASSERT_TRUE(hwc.active());
  std::uint64_t a[rt::kHwcSlots], b[rt::kHwcSlots];
  hwc.read(a);
  // Touch a few pages so at least the minor-fault slot can move; the
  // counters are cumulative per thread, so b >= a holds slot-wise.
  std::vector<char> pages(1 << 22);
  for (std::size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;
  hwc.read(b);
  for (int i = 0; i < rt::kHwcSlots; ++i) EXPECT_GE(b[i], a[i]) << "slot " << i;
}

TEST_F(HwcTest, SolveCarriesDeltasAndReportAggregatesMatch) {
  // Some slice must carry a non-zero delta. The rusage slots are coarse
  // (clock-tick CPU time, faults only on cold pages), so a small warm
  // solve can legally read all-zero; escalate n until the counters move
  // rather than flake on granularity.
  const auto grand_total = [](const rt::Trace& t) {
    std::uint64_t g = 0;
    for (const auto& e : t.events)
      for (int s = 0; s < rt::kHwcSlots; ++s) g += e.hwc[s];
    return g;
  };
  dc::SolveStats st = run_solve();
  std::uint64_t grand = grand_total(st.trace);
  for (index_t n = 600; grand == 0 && n <= 2400; n *= 2) {
    st = run_solve(n);
    grand = grand_total(st.trace);
  }
  const rt::Trace& tr = st.trace;

  // Backend is recorded on the trace (rusage forced here; a process that
  // decided perf earlier stays on perf -- both are valid backends).
  ASSERT_FALSE(tr.hwc_backend.empty());
  EXPECT_NE(obs::parse_hwc_backend(tr.hwc_backend), obs::HwcBackend::kOff);
  ASSERT_EQ(tr.hwc_slot_names.size(), static_cast<std::size_t>(rt::kHwcSlots));

  EXPECT_GT(grand, 0u);

  // Report aggregates are exactly the per-kind sums over the slices.
  const obs::SolveReport& rep = st.report;
  EXPECT_EQ(rep.hwc_backend, tr.hwc_backend);
  ASSERT_FALSE(rep.kind_hwc.empty());
  const std::vector<obs::KindHwcTotals> expect = obs::kind_hwc_totals(tr);
  ASSERT_EQ(rep.kind_hwc.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(rep.kind_hwc[i].kind, expect[i].kind);
    EXPECT_EQ(rep.kind_hwc[i].tasks, expect[i].tasks);
    for (int s = 0; s < rt::kHwcSlots; ++s)
      EXPECT_EQ(rep.kind_hwc[i].hwc[s], expect[i].hwc[s]);
  }

  // JSON + text both name the backend and the per-kind block.
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"hwc\""), std::string::npos);
  EXPECT_NE(js.find("\"backend\": \"" + tr.hwc_backend + "\""), std::string::npos);
  EXPECT_NE(js.find("\"kinds\""), std::string::npos);
  const std::string txt = rep.summary_text();
  EXPECT_NE(txt.find("hardware counters"), std::string::npos);
  EXPECT_NE(txt.find(tr.hwc_backend), std::string::npos);
}

TEST_F(HwcTest, PerfettoRoundTripIsLossless) {
  dc::SolveStats st = run_solve(260);
  const rt::Trace& tr = st.trace;
  ASSERT_FALSE(tr.hwc_backend.empty());

  const std::string json = obs::perfetto_trace_json(tr, &st.report);
  rt::Trace back;
  obs::SolveReport back_report;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(json, back, &err, &back_report)) << err;

  EXPECT_EQ(back.hwc_backend, tr.hwc_backend);
  EXPECT_EQ(back.hwc_slot_names, tr.hwc_slot_names);
  // The trace carries the solve's report -- the GEMM totals, precision and
  // kernel table the roofline reads -- so a trace file alone supports it.
  EXPECT_EQ(back_report.to_json(), st.report.to_json());

  // Per-slice deltas survive, matched by task id.
  long compared = 0;
  for (const auto& e : tr.events) {
    if (e.worker < 0) continue;
    for (const auto& l : back.events) {
      if (l.task_id != e.task_id) continue;
      for (int s = 0; s < rt::kHwcSlots; ++s)
        EXPECT_EQ(l.hwc[s], e.hwc[s]) << "task " << e.task_id << " slot " << s;
      ++compared;
      break;
    }
  }
  EXPECT_GT(compared, 0);
  // And the per-kind aggregation of the reloaded trace matches the original.
  const auto orig = obs::kind_hwc_totals(tr);
  const auto loaded = obs::kind_hwc_totals(back);
  ASSERT_EQ(orig.size(), loaded.size());
  for (std::size_t i = 0; i < orig.size(); ++i)
    for (int s = 0; s < rt::kHwcSlots; ++s) EXPECT_EQ(orig[i].hwc[s], loaded[i].hwc[s]);
}

TEST(HwcRss, PeakRssGrowsWithALargeAllocation) {
  const std::uint64_t before = obs::current_peak_rss_bytes();
  ASSERT_GT(before, 0u) << "peak-RSS probe unavailable on this host";
  // Touch ~96 MiB; the high-water mark must rise by a comparable amount
  // (>= 64 MiB leaves slack for allocator reuse and page accounting).
  constexpr std::size_t kBytes = 96u << 20;
  {
    std::vector<char> big(kBytes);
    for (std::size_t i = 0; i < big.size(); i += 4096) big[i] = 1;
    const std::uint64_t during = obs::current_peak_rss_bytes();
    EXPECT_GE(during, before + (64u << 20));
  }
  // The high-water mark is monotone: freeing must not lower it.
  EXPECT_GE(obs::current_peak_rss_bytes(), before + (64u << 20));
}

TEST_F(HwcTest, FallbackReportsPlausiblePeakRssAfterLargeSolve) {
  // An n x n solve allocates >= 2 n^2 doubles (output + workspace); with
  // n=640 that is ~6.3 MiB minimum. The report's RSS figures must be
  // present and the high-water mark must cover what the solve allocated.
  dc::SolveStats st = run_solve(640);
  const obs::SolveReport& rep = st.report;
  EXPECT_GT(rep.memory.rss_hwm_bytes, 0u);
  EXPECT_GE(rep.memory.rss_hwm_bytes,
            rep.memory.workspace_bytes + rep.memory.output_bytes);
  // Exact allocation accounting for the D&C drivers: one n x n workspace
  // (the secular matrices live in the output) plus the bound on the
  // per-worker n x nb copies of S.
  const std::uint64_t n = 640;
  const dc::Options opt;
  const std::uint64_t panel = static_cast<std::uint64_t>(std::min<index_t>(opt.nb, 640));
  const std::uint64_t workspace =
      (n * n + static_cast<std::uint64_t>(opt.threads) * n * panel) * sizeof(double);
  EXPECT_EQ(rep.memory.workspace_bytes, workspace);
  EXPECT_EQ(dc::workspace_bytes(640, opt), workspace);
  EXPECT_EQ(rep.memory.output_bytes, n * n * sizeof(double));
  EXPECT_GT(rep.memory.context_bytes, 0u);
  const std::string js = rep.to_json();
  EXPECT_NE(js.find("\"memory\""), std::string::npos);
  EXPECT_NE(js.find("\"rss_hwm_bytes\""), std::string::npos);
}

TEST(HwcRoofline, SyntheticPerfTraceAttributesGemmAndIpc) {
  rt::Trace t;
  t.workers = 1;
  t.kind_names = {"LAED4", "UpdateVect"};
  t.kind_memory_bound = {0, 0};
  t.hwc_backend = "perf";
  t.hwc_slot_names = {"cycles", "instructions", "llc_misses", "llc_references"};
  // LAED4: 1e9 cycles, 2e9 instr (IPC 2), 10/100 LLC -> 10% miss rate.
  rt::TraceEvent a{1, 0, 0, 0.0, 0.5};
  a.hwc = {1000000000u, 2000000000u, 10u, 100u};
  // UpdateVect: 3e9 cycles, 9e9 instr (IPC 3), busiest kind.
  rt::TraceEvent b{2, 1, 0, 0.5, 2.0};
  b.hwc = {3000000000u, 9000000000u, 50u, 200u};
  t.events = {a, b};

  obs::SolveReport rep;
  rep.counters[obs::kGemmFlops] = 32'000'000'000u;
  rep.counters[obs::kGemmPackedBytes] = 4'000'000'000u;
  const obs::Roofline r = obs::roofline(t, &rep);
  ASSERT_EQ(r.rows.size(), 2u);
  // Rows sorted by cycles share: UpdateVect (3e9 of 4e9) first.
  EXPECT_EQ(r.rows[0].kind, "UpdateVect");
  EXPECT_NEAR(r.rows[0].share, 0.75, 1e-12);
  EXPECT_NEAR(r.rows[0].ipc, 3.0, 1e-12);
  EXPECT_NEAR(r.rows[0].miss_rate, 0.25, 1e-12);
  EXPECT_TRUE(r.rows[0].has_flops);
  EXPECT_NEAR(r.rows[0].arith_intensity, 8.0, 1e-12);      // 32e9 / 4e9
  EXPECT_NEAR(r.rows[0].gflops, 32.0 / 1.5, 1e-9);         // 32e9 flops / 1.5 s
  EXPECT_FALSE(r.rows[1].has_flops);
  EXPECT_NEAR(r.rows[1].ipc, 2.0, 1e-12);
  // Peak derived from measured cycles: 4e9 cycles / 2.0 s busy = 2 GHz,
  // x16 flops/cycle = 32 GF/s.
  EXPECT_EQ(r.peak_source, "derived");
  EXPECT_NEAR(r.peak_gflops, 32.0, 1e-9);
  EXPECT_NEAR(r.rows[0].pct_of_peak, 100.0 * (32.0 / 1.5) / 32.0, 1e-6);

  // A caller-provided peak overrides the derivation.
  const obs::Roofline rf = obs::roofline(t, &rep, /*peak_gflops=*/100.0);
  EXPECT_EQ(rf.peak_source, "flag");
  EXPECT_NEAR(rf.peak_gflops, 100.0, 1e-12);

  const std::string txt = obs::render_roofline(r);
  EXPECT_NE(txt.find("UpdateVect"), std::string::npos);
  EXPECT_NE(txt.find("IPC"), std::string::npos);
  EXPECT_NE(txt.find("avx2 width"), std::string::npos);

  // A report naming the avx512 kernel table doubles the derived width
  // (32 fp64 flops/cycle), so the same cycles give a 64 GF/s roof; fp32
  // kernels double it again; an avx2 report keeps the 16 flops/cycle roof.
  rep.simd_isa = "avx512";
  const obs::Roofline r5 = obs::roofline(t, &rep);
  EXPECT_EQ(r5.simd_isa, "avx512");
  EXPECT_NEAR(r5.peak_gflops, 64.0, 1e-9);
  EXPECT_NEAR(r5.rows[0].pct_of_peak, 100.0 * (32.0 / 1.5) / 64.0, 1e-6);
  EXPECT_NE(obs::render_roofline(r5).find("avx512 width"), std::string::npos);
  rep.precision = "f32";
  EXPECT_NEAR(obs::roofline(t, &rep).peak_gflops, 128.0, 1e-9);
  rep.precision = "f64";
  rep.simd_isa = "avx2";
  EXPECT_NEAR(obs::roofline(t, &rep).peak_gflops, 32.0, 1e-9);

  // Without a report (a foreign or older trace) there is nothing to
  // attribute, the roof is the fp64 AVX2 one, and the render says why.
  const obs::Roofline bare = obs::roofline(t, nullptr);
  EXPECT_FALSE(bare.has_report);
  EXPECT_NEAR(bare.peak_gflops, 32.0, 1e-9);
  for (const obs::RooflineRow& row : bare.rows) EXPECT_FALSE(row.has_flops);
  EXPECT_NE(obs::render_roofline(bare).find("no SolveReport on this trace"), std::string::npos);
  EXPECT_EQ(obs::render_roofline(r).find("no SolveReport"), std::string::npos);
}

TEST(HwcRoofline, RusageTraceUsesTimeShares) {
  rt::Trace t;
  t.workers = 1;
  t.kind_names = {"A", "B"};
  t.hwc_backend = "rusage";
  t.hwc_slot_names = {"minor_faults", "major_faults", "vol_ctx_switches",
                      "invol_ctx_switches"};
  rt::TraceEvent a{1, 0, 0, 0.0, 3.0};
  rt::TraceEvent b{2, 1, 0, 3.0, 4.0};
  t.events = {a, b};
  obs::SolveReport rep;
  rep.counters[obs::kGemmFlops] = 8'000'000'000u;
  rep.counters[obs::kGemmPackedBytes] = 1'000'000'000u;
  const obs::Roofline r = obs::roofline(t, &rep);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].kind, "A");  // 3 s of 4 s busy
  EXPECT_NEAR(r.rows[0].share, 0.75, 1e-12);
  EXPECT_EQ(r.peak_source, "assumed");
  // No UpdateVect: flops fall back to the busiest kind.
  EXPECT_TRUE(r.rows[0].has_flops);
  EXPECT_NEAR(r.rows[0].arith_intensity, 8.0, 1e-12);
}

}  // namespace
}  // namespace dnc
