#include "obs/report.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/env.hpp"
#include "common/text.hpp"
#include "common/version.hpp"
#include "obs/analysis.hpp"
#include "obs/perfetto.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs {
namespace {

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

}  // namespace

std::uint64_t SolveReport::laed4_hist_total() const {
  std::uint64_t s = 0;
  for (int b = 0; b < kLaed4HistBuckets; ++b) s += counters[kLaed4HistFirst + b];
  return s;
}

long SolveReport::merged_columns_total() const {
  long s = 0;
  for (const auto& m : merges) s += m.m;
  return s;
}

long SolveReport::deflated_total() const {
  long s = 0;
  for (const auto& m : merges) s += m.m - m.k;
  return s;
}

long SolveReport::nondeflated_total() const {
  long s = 0;
  for (const auto& m : merges) s += m.k;
  return s;
}

double SolveReport::deflated_fraction() const {
  const long merged = merged_columns_total();
  return merged > 0 ? static_cast<double>(deflated_total()) / merged : 0.0;
}

double SolveReport::gemm_gflops() const {
  const std::uint64_t flops = counter(kGemmFlops);
  return flops > 0 && seconds > 0.0 ? static_cast<double>(flops) * 1e-9 / seconds : 0.0;
}

int SolveReport::workers() const {
  return has_scheduler && scheduler.workers > 0 ? scheduler.workers : std::max(threads, 1);
}

std::string SolveReport::to_json() const {
  std::string out = "{\n";
  appendf(out, "  \"driver\": \"%s\",\n", rt::json_escape(driver).c_str());
  appendf(out, "  \"n\": %ld,\n", n);
  appendf(out, "  \"threads\": %d,\n", threads);
  appendf(out, "  \"seconds\": %.9f,\n", seconds);
  appendf(out, "  \"simd_isa\": \"%s\",\n", rt::json_escape(simd_isa).c_str());
  appendf(out, "  \"precision\": \"%s\",\n", rt::json_escape(precision).c_str());
  appendf(out, "  \"git_commit\": \"%s\",\n", rt::json_escape(git_commit).c_str());
  appendf(out, "  \"build_type\": \"%s\",\n", rt::json_escape(build_type).c_str());
  appendf(out, "  \"hostname\": \"%s\",\n", rt::json_escape(hostname).c_str());
  appendf(out, "  \"timestamp\": \"%s\",\n", rt::json_escape(timestamp).c_str());
  appendf(out, "  \"family\": \"%s\",\n", rt::json_escape(family).c_str());
  out += "  \"counters\": {";
  for (int c = 0; c < kNumCounters; ++c) {
    appendf(out, "%s\n    \"%s\": %llu", c ? "," : "", counter_name(c), ull(counters[c]));
  }
  out += "\n  },\n";
  appendf(out,
          "  \"deflation\": {\n"
          "    \"merges\": %zu,\n"
          "    \"merged_columns\": %ld,\n"
          "    \"nondeflated\": %ld,\n"
          "    \"deflated\": %ld,\n"
          "    \"deflated_fraction\": %.6f\n"
          "  },\n",
          merges.size(), merged_columns_total(), nondeflated_total(), deflated_total(),
          deflated_fraction());
  out += "  \"merges\": [";
  for (std::size_t i = 0; i < merges.size(); ++i) {
    const MergeRecord& m = merges[i];
    appendf(out,
            "%s\n    {\"level\": %d, \"m\": %ld, \"n1\": %ld, \"k\": %ld, "
            "\"ctot\": [%ld, %ld, %ld, %ld], \"t_end\": %.9f}",
            i ? "," : "", m.level, m.m, m.n1, m.k, m.ctot[0], m.ctot[1], m.ctot[2], m.ctot[3],
            m.t_end);
  }
  out += merges.empty() ? "],\n" : "\n  ],\n";
  appendf(out,
          "  \"memory\": {\n"
          "    \"workspace_bytes\": %llu,\n"
          "    \"context_bytes\": %llu,\n"
          "    \"output_bytes\": %llu,\n"
          "    \"rss_hwm_bytes\": %llu,\n"
          "    \"rss_hwm_delta_bytes\": %llu\n"
          "  },\n",
          ull(memory.workspace_bytes), ull(memory.context_bytes), ull(memory.output_bytes),
          ull(memory.rss_hwm_bytes), ull(memory.rss_hwm_delta_bytes));
  if (!hwc_backend.empty()) {
    appendf(out, "  \"hwc\": {\n    \"backend\": \"%s\",\n    \"slots\": [",
            rt::json_escape(hwc_backend).c_str());
    for (std::size_t s = 0; s < hwc_slot_names.size(); ++s)
      appendf(out, "%s\"%s\"", s ? ", " : "", rt::json_escape(hwc_slot_names[s]).c_str());
    out += "],\n    \"kinds\": [";
    for (std::size_t i = 0; i < kind_hwc.size(); ++i) {
      const KindHwcTotals& k = kind_hwc[i];
      appendf(out,
              "%s\n      {\"kind\": \"%s\", \"tasks\": %ld, \"seconds\": %.9f, "
              "\"hwc\": [%llu, %llu, %llu, %llu]}",
              i ? "," : "", rt::json_escape(k.kind).c_str(), k.tasks, k.seconds,
              ull(k.hwc[0]), ull(k.hwc[1]), ull(k.hwc[2]), ull(k.hwc[3]));
    }
    out += kind_hwc.empty() ? "]\n  },\n" : "\n    ]\n  },\n";
  }
  if (has_health) {
    appendf(out,
            "  \"health\": {\n"
            "    \"sampled_columns\": %d,\n"
            "    \"max_rel_residual\": %.17g,\n"
            "    \"max_ortho_error\": %.17g\n"
            "  },\n",
            health.sampled_columns, health.max_rel_residual, health.max_ortho_error);
  }
  appendf(out, "  \"has_scheduler\": %s", has_scheduler ? "true" : "false");
  if (has_scheduler) {
    appendf(out,
            ",\n  \"scheduler\": {\n"
            "    \"workers\": %d,\n"
            "    \"tasks\": %ld,\n"
            "    \"makespan\": %.9f,\n"
            "    \"total_busy\": %.9f,\n"
            "    \"efficiency\": %.6f,\n"
            "    \"avg_ready_wait\": %.9f,\n"
            "    \"max_ready_wait\": %.9f,\n"
            "    \"total_idle\": %.9f,\n"
            "    \"max_queue_depth\": %d,\n"
            "    \"steals\": %ld,\n"
            "    \"steal_attempts\": %ld,\n"
            "    \"failed_steals\": %ld,\n"
            "    \"local_pops\": %ld,\n"
            "    \"placed_max\": %ld,\n"
            "    \"placed_min\": %ld,\n"
            "    \"child_tasks\": %ld\n"
            "  }",
            scheduler.workers, scheduler.tasks, scheduler.makespan, scheduler.total_busy,
            scheduler.efficiency, scheduler.avg_ready_wait, scheduler.max_ready_wait,
            scheduler.total_idle, scheduler.max_queue_depth, scheduler.steals,
            scheduler.steal_attempts, scheduler.failed_steals, scheduler.local_pops,
            scheduler.placed_max, scheduler.placed_min, scheduler.child_tasks);
  }
  out += "\n}\n";
  return out;
}

std::string SolveReport::summary_text() const {
  std::string out;
  appendf(out, "=== dnc solve report ===\n");
  appendf(out, "driver        : %s\n", driver.c_str());
  appendf(out, "n             : %ld\n", n);
  appendf(out, "threads       : %d\n", threads);
  appendf(out, "wall time     : %.6f s\n", seconds);
  appendf(out, "simd kernels  : %s\n", simd_isa.c_str());
  appendf(out, "precision     : %s (%d-bit kernels)\n", precision.c_str(), precision_bits());
  appendf(out, "revision      : %s (%s)\n", git_commit.c_str(), build_type.c_str());
  if (!hostname.empty())
    appendf(out, "host / time   : %s  %s\n", hostname.c_str(), timestamp.c_str());
  if (has_health)
    appendf(out, "health        : resid %.3e, ortho %.3e (%d sampled columns)\n",
            health.max_rel_residual, health.max_ortho_error, health.sampled_columns);
  appendf(out, "\n-- deflation (%zu merges) --\n", merges.size());
  appendf(out, "merged columns: %ld\n", merged_columns_total());
  appendf(out, "deflated      : %ld (%.1f%%)\n", deflated_total(), 100.0 * deflated_fraction());
  appendf(out, "secular roots : %ld\n", nondeflated_total());
  if (!merges.empty()) {
    // Per-level rollup: the paper's observation that deflation shrinks the
    // secular systems is easiest to read level by level.
    int max_level = 0;
    for (const auto& m : merges) max_level = std::max(max_level, m.level);
    appendf(out, "%-6s %8s %10s %10s %8s\n", "level", "merges", "columns", "deflated", "defl%");
    for (int lv = max_level; lv >= 0; --lv) {
      long cnt = 0, cols = 0, defl = 0;
      for (const auto& m : merges) {
        if (m.level != lv) continue;
        ++cnt;
        cols += m.m;
        defl += m.m - m.k;
      }
      if (cnt == 0) continue;
      appendf(out, "%-6d %8ld %10ld %10ld %7.1f%%\n", lv, cnt, cols, defl,
              cols > 0 ? 100.0 * defl / cols : 0.0);
    }
  }
  appendf(out, "\n-- secular solver (laed4) --\n");
  appendf(out, "calls         : %llu\n", ull(counters[kLaed4Calls]));
  appendf(out, "iterations    : %llu (avg %.2f/call)\n", ull(counters[kLaed4Iterations]),
          counters[kLaed4Calls] > 0
              ? static_cast<double>(counters[kLaed4Iterations]) / counters[kLaed4Calls]
              : 0.0);
  static const char* kBucketLabel[kLaed4HistBuckets] = {"0", "1",   "2",   "3",
                                                        "4", "5-6", "7-9", "10+"};
  const std::uint64_t total = std::max<std::uint64_t>(laed4_hist_total(), 1);
  for (int b = 0; b < kLaed4HistBuckets; ++b) {
    const std::uint64_t v = counters[kLaed4HistFirst + b];
    if (v == 0) continue;
    appendf(out, "  iters %-4s : %10llu  %5.1f%%\n", kBucketLabel[b], ull(v), 100.0 * v / total);
  }
  appendf(out, "\n-- other kernels --\n");
  appendf(out, "sturm counts  : %llu calls, %llu pivot steps\n", ull(counters[kSturmCalls]),
          ull(counters[kSturmSteps]));
  appendf(out, "ldl bisection : %llu calls, %llu halvings\n", ull(counters[kBisectLdlCalls]),
          ull(counters[kBisectLdlSteps]));
  appendf(out, "gemm          : %llu calls, %.3f GFLOP, %.1f MiB packed\n",
          ull(counters[kGemmCalls]), counters[kGemmFlops] * 1e-9,
          counters[kGemmPackedBytes] / (1024.0 * 1024.0));
  const auto mib = [](std::uint64_t b) { return b / (1024.0 * 1024.0); };
  appendf(out, "\n-- memory --\n");
  appendf(out, "workspace     : %.1f MiB scratch, %.1f MiB contexts, %.1f MiB output\n",
          mib(memory.workspace_bytes), mib(memory.context_bytes), mib(memory.output_bytes));
  if (memory.rss_hwm_bytes > 0)
    appendf(out, "peak rss      : %.1f MiB (grew %.1f MiB during solve)\n",
            mib(memory.rss_hwm_bytes), mib(memory.rss_hwm_delta_bytes));
  if (!hwc_backend.empty()) {
    appendf(out, "\n-- hardware counters (%s backend) --\n", hwc_backend.c_str());
    appendf(out, "%-22s %8s %11s", "kind", "tasks", "time(s)");
    for (const std::string& s : hwc_slot_names) appendf(out, " %14s", s.c_str());
    if (hwc_backend == "perf") appendf(out, " %6s %6s", "IPC", "miss%");
    out += "\n";
    for (const KindHwcTotals& k : kind_hwc) {
      appendf(out, "%-22s %8ld %11.6f", k.kind.c_str(), k.tasks, k.seconds);
      for (int s = 0; s < rt::kHwcSlots; ++s) appendf(out, " %14llu", ull(k.hwc[s]));
      if (hwc_backend == "perf") {
        appendf(out, " %6.2f %5.1f%%",
                k.hwc[0] > 0 ? static_cast<double>(k.hwc[1]) / k.hwc[0] : 0.0,
                k.hwc[3] > 0 ? 100.0 * k.hwc[2] / k.hwc[3] : 0.0);
      }
      out += "\n";
    }
  }
  if (has_scheduler) {
    appendf(out, "\n-- scheduler --\n");
    appendf(out, "workers       : %d\n", scheduler.workers);
    appendf(out, "tasks         : %ld\n", scheduler.tasks);
    appendf(out, "makespan      : %.6f s\n", scheduler.makespan);
    appendf(out, "busy / eff    : %.6f s / %.1f%%\n", scheduler.total_busy,
            100.0 * scheduler.efficiency);
    appendf(out, "ready wait    : avg %.9f s, max %.9f s\n", scheduler.avg_ready_wait,
            scheduler.max_ready_wait);
    appendf(out, "worker idle   : %.6f s total\n", scheduler.total_idle);
    appendf(out, "queue depth   : max %d\n", scheduler.max_queue_depth);
    // Work-stealing counters: absent on simulated schedules and on
    // reports whose trace carried none.
    if (scheduler.local_pops + scheduler.steal_attempts > 0) {
      appendf(out, "steals        : %ld ok / %ld attempts / %ld dry scans\n",
              scheduler.steals, scheduler.steal_attempts, scheduler.failed_steals);
      appendf(out, "local pops    : %ld\n", scheduler.local_pops);
      appendf(out, "placement     : %ld..%ld per worker (submitter round-robin)\n",
              scheduler.placed_min, scheduler.placed_max);
    }
    if (scheduler.child_tasks > 0)
      appendf(out, "child tasks   : %ld (task-internal spawn_and_wait)\n",
              scheduler.child_tasks);
  }
  return out;
}

SchedulerMetrics scheduler_metrics(const rt::Trace& trace) {
  SchedulerMetrics m;
  m.workers = trace.workers;
  m.makespan = trace.makespan();
  m.total_busy = trace.total_busy();
  m.efficiency = trace.efficiency();
  double wait_sum = 0.0;
  for (const auto& e : trace.events) {
    if (e.worker < 0) continue;
    ++m.tasks;
    if (e.is_child()) ++m.child_tasks;
    if (e.t_ready > 0.0) {
      const double w = std::max(e.t_start - e.t_ready, 0.0);
      wait_sum += w;
      m.max_ready_wait = std::max(m.max_ready_wait, w);
    }
  }
  m.avg_ready_wait = m.tasks > 0 ? wait_sum / m.tasks : 0.0;
  for (double d : trace.worker_idle) m.total_idle += d;
  // queue_samples may be decimated; queue_depth_peak is the exact maximum
  // (0 on traces predating it, so the max over both stays correct).
  for (const auto& s : trace.queue_samples) m.max_queue_depth = std::max(m.max_queue_depth, s.depth);
  m.max_queue_depth = std::max(m.max_queue_depth, trace.queue_depth_peak);
  if (!trace.sched_counters.empty()) {
    m.placed_max = trace.sched_counters.front().placed;
    m.placed_min = trace.sched_counters.front().placed;
    for (const auto& c : trace.sched_counters) {
      m.steals += c.steals;
      m.steal_attempts += c.steal_attempts;
      m.failed_steals += c.failed_steals;
      m.local_pops += c.local_pops;
      m.placed_max = std::max(m.placed_max, c.placed);
      m.placed_min = std::min(m.placed_min, c.placed);
    }
  }
  return m;
}

SolveScope::SolveScope(const char* driver, const char* precision, const char* simd_isa)
    : driver_(driver),
      precision_(precision),
      simd_isa_(simd_isa),
      begin_(snapshot()),
      rss_hwm_begin_(current_peak_rss_bytes()) {}

void SolveScope::finish(SolveReport& out, long n, int threads, const rt::Trace* trace,
                        const std::vector<int>& simulate_workers,
                        std::vector<rt::SimulationResult>& simulated) const {
  if (trace)
    for (int w : simulate_workers) simulated.push_back(replay_trace(*trace, w));
  out.driver = driver_;
  out.precision = precision_;
  out.simd_isa = simd_isa_;
  out.n = n;
  out.threads = threads;
  out.git_commit = version::kGitCommit;
  out.build_type = version::kBuildType;
  out.hostname = current_hostname();
  out.timestamp = iso8601_timestamp_utc();
  out.counters = delta_since(begin_);
  out.memory.rss_hwm_bytes = current_peak_rss_bytes();
  out.memory.rss_hwm_delta_bytes = out.memory.rss_hwm_bytes > rss_hwm_begin_
                                       ? out.memory.rss_hwm_bytes - rss_hwm_begin_
                                       : 0;
  // A reused report must not keep the previous solve's aggregates: an
  // hwc-off or sequential rerun would otherwise still show the old
  // scheduler/hwc/health blocks.
  out.has_scheduler = false;
  out.scheduler = SchedulerMetrics{};
  out.hwc_backend.clear();
  out.hwc_slot_names.clear();
  out.kind_hwc.clear();
  out.has_health = false;
  out.health = HealthMetrics{};
  if (trace) {
    out.has_scheduler = true;
    out.scheduler = scheduler_metrics(*trace);
    if (!trace->hwc_backend.empty()) {
      out.hwc_backend = trace->hwc_backend;
      out.hwc_slot_names = trace->hwc_slot_names;
      out.kind_hwc = kind_hwc_totals(*trace);
    }
  }
}

bool trace_export_requested() noexcept {
  const char* p = env::raw("DNC_TRACE");
  return p && *p;
}

namespace {
// Process-wide solve-export counter (see the header's clobbering note).
// Relaxed is enough: concurrent solves racing for the same artifact path
// have no meaningful order anyway; each still gets a distinct suffix.
std::atomic<unsigned> g_export_seq{0};
}  // namespace

std::string sequenced_export_path(const std::string& base, unsigned seq) {
  if (seq == 0) return base;
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ".%u", seq + 1);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + suffix;  // no extension: plain append
  return base.substr(0, dot) + suffix + base.substr(dot);
}

void reset_export_sequence() noexcept { g_export_seq.store(0); }

std::string expand_path_placeholders(const std::string& path, unsigned long seq) {
  std::string out = path;
  char buf[32];
  for (std::size_t pos; (pos = out.find("%p")) != std::string::npos;) {
    std::snprintf(buf, sizeof buf, "%ld", static_cast<long>(::getpid()));
    out.replace(pos, 2, buf);
  }
  for (std::size_t pos; (pos = out.find("%s")) != std::string::npos;) {
    std::snprintf(buf, sizeof buf, "%lu", seq);
    out.replace(pos, 2, buf);
  }
  return out;
}

std::string current_hostname() {
  static const std::string cached = [] {
    char buf[256] = {};
    if (::gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0') return std::string("unknown");
    return std::string(buf);
  }();
  return cached;
}

std::string iso8601_timestamp_utc() {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

namespace {

// %s names each export's file itself; %p alone separates processes but the
// in-process repeats still need the ".N" suffix; no placeholder keeps the
// original sequencing behaviour.
std::string resolved_export_path(const std::string& base, unsigned seq) {
  if (base.find("%s") != std::string::npos)
    return expand_path_placeholders(base, seq + 1);
  if (base.find("%p") != std::string::npos)
    return sequenced_export_path(expand_path_placeholders(base, seq + 1), seq);
  return sequenced_export_path(base, seq);
}

}  // namespace

void export_solve_trace(const SolveReport& report, const rt::Trace* trace) {
  const char* path = env::raw("DNC_TRACE");
  if (!path || !*path || !trace) return;
  // The sequence number is taken only by a solve that writes a file.
  write_text_file(resolved_export_path(path, g_export_seq.fetch_add(1)),
                  perfetto_trace_json(*trace, &report));
}

}  // namespace dnc::obs
