// dnc_trace: trace analytics CLI.
//
// Answers "where did the time go and what would more cores buy" from a
// single measured solve -- the paper's Fig. 5 scalability-shape analysis
// reproduced from a one-core measurement. Two sources:
//
//   dnc_trace --n 1000 --type 4            run a solve in-process
//   dnc_trace --load trace.json            analyse a $DNC_TRACE export
//
// Output: per-kernel time split, the critical path (ordered chain +
// per-kind attribution), the work/span law, a what-if replay sweep over
// worker counts, the parallelism profile (ASCII), and -- in solve mode with
// --nb-sweep -- the panel-width granularity trade-off. --json dumps the
// same analysis machine-readably.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "obs/analysis.hpp"
#include "obs/history.hpp"
#include "obs/hwc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "runtime/sched.hpp"
#include "runtime/trace.hpp"

namespace {

using namespace dnc;

struct Args {
  std::string load;          ///< trace file; empty = solve in-process
  std::string driver = "taskflow";
  int type = 4;
  long n = 1000;
  long minpart = 0;  ///< 0 = scaled default
  long nb = 0;
  std::vector<int> workers{1, 2, 4, 8, 16, 32};
  bool nb_sweep = false;
  std::string json_out;
  int profile_width = 100;
  /// Engine policy for in-process solves ("" = default / $DNC_SCHED).
  std::string sched;
  /// Roofline view: per-kind hardware-counter attribution vs the machine
  /// peak. In solve mode this turns DNC_HWC sampling on for the run.
  bool roofline = false;
  double peak_gflops = 0.0;  ///< 0 = derive/assume (see obs::roofline)
  /// Metrics-snapshot modes (render one / diff two DNC_METRICS .json
  /// exports); when set, no solve or trace load happens.
  std::string metrics;
  std::string metrics_diff_a, metrics_diff_b;
  /// Profile mode: render a folded-stack dump (DNC_PROFILE / the /profile
  /// endpoint) as hot-stack and hot-frame tables; no solve happens.
  std::string profile;
  int top = 15;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--load trace.json | --driver taskflow|lapack_model|scalapack_model|mrrr]\n"
      "          [--type 1..15] [--n N] [--minpart M] [--nb NB]\n"
      "          [--workers 1,2,4,8,16,32] [--nb-sweep] [--json out.json]\n"
      "          [--profile-width W] [--sched central|steal]\n"
      "          [--roofline] [--peak-gflops G] [--version]\n"
      "       %s --metrics snap.json | --metrics-diff a.json b.json\n"
      "       %s --profile profile.folded [--top N]\n",
      argv0, argv0, argv0);
}

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    out.push_back(std::atoi(s.c_str() + pos));
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--load") {
      const char* v = next();
      if (!v) return false;
      a.load = v;
    } else if (flag == "--driver") {
      const char* v = next();
      if (!v) return false;
      a.driver = v;
    } else if (flag == "--type") {
      const char* v = next();
      if (!v) return false;
      a.type = std::atoi(v);
    } else if (flag == "--n") {
      const char* v = next();
      if (!v) return false;
      a.n = std::atol(v);
    } else if (flag == "--minpart") {
      const char* v = next();
      if (!v) return false;
      a.minpart = std::atol(v);
    } else if (flag == "--nb") {
      const char* v = next();
      if (!v) return false;
      a.nb = std::atol(v);
    } else if (flag == "--workers") {
      const char* v = next();
      if (!v) return false;
      a.workers = parse_int_list(v);
      if (a.workers.empty()) return false;
    } else if (flag == "--nb-sweep") {
      a.nb_sweep = true;
    } else if (flag == "--json") {
      const char* v = next();
      if (!v) return false;
      a.json_out = v;
    } else if (flag == "--profile-width") {
      const char* v = next();
      if (!v) return false;
      a.profile_width = std::atoi(v);
    } else if (flag == "--sched") {
      const char* v = next();
      rt::SchedPolicy p;
      if (!v || !rt::parse_sched_policy(v, p)) return false;
      a.sched = v;
    } else if (flag == "--roofline") {
      a.roofline = true;
    } else if (flag == "--metrics") {
      const char* v = next();
      if (!v) return false;
      a.metrics = v;
    } else if (flag == "--metrics-diff") {
      const char* va = next();
      const char* vb = next();
      if (!va || !vb) return false;
      a.metrics_diff_a = va;
      a.metrics_diff_b = vb;
    } else if (flag == "--profile") {
      const char* v = next();
      if (!v) return false;
      a.profile = v;
    } else if (flag == "--top") {
      const char* v = next();
      if (!v) return false;
      a.top = std::atoi(v);
      if (a.top < 1) return false;
    } else if (flag == "--peak-gflops") {
      const char* v = next();
      if (!v) return false;
      a.peak_gflops = std::atof(v);
    } else if (flag == "--version") {
      std::printf("dnc_trace %s (%s)\n", dnc::version::kGitCommit, dnc::version::kBuildType);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

dc::Options solve_options(const Args& a) {
  dc::Options opt;
  opt.threads = 1;  // measure durations without timesharing noise
  opt.minpart = a.minpart > 0 ? a.minpart : std::max<index_t>(48, a.n / 16);
  opt.nb = a.nb > 0 ? a.nb : std::max<index_t>(48, a.n / 12);
  if (!a.sched.empty()) rt::parse_sched_policy(a.sched.c_str(), opt.sched);
  return opt;
}

/// Runs the requested driver and returns its trace. When `report` is
/// non-null it receives the solve's SolveReport (the roofline needs its
/// GEMM FLOP / packed-byte counters).
bool run_solver(const Args& a, rt::Trace& trace, obs::SolveReport* report = nullptr) {
  matgen::Tridiag t = matgen::table3_matrix(a.type, a.n);
  // History records key on the matrix family; only this harness knows it.
  obs::history::set_family_hint(std::to_string(a.type).c_str());
  Matrix v;
  const dc::Options opt = solve_options(a);
  if (a.driver == "mrrr") {
    mrrr::Options mopt;
    mopt.threads = 1;
    if (!a.sched.empty()) rt::parse_sched_policy(a.sched.c_str(), mopt.sched);
    mrrr::Stats st;
    std::vector<double> lam;
    mrrr_solve(a.n, t.d.data(), t.e.data(), lam, v, mopt, &st);
    trace = st.trace;
    if (report) *report = st.report;
    return true;
  }
  dc::SolveStats st;
  std::vector<double> d = t.d, e = t.e;
  if (a.driver == "taskflow")
    dc::stedc_taskflow(a.n, d.data(), e.data(), v, opt, &st);
  else if (a.driver == "lapack_model")
    dc::stedc_lapack_model(a.n, d.data(), e.data(), v, opt, &st);
  else if (a.driver == "scalapack_model")
    dc::stedc_scalapack_model(a.n, d.data(), e.data(), v, opt, &st);
  else {
    std::fprintf(stderr,
                 "unknown driver '%s' (sequential has no trace; pick a runtime-backed one)\n",
                 a.driver.c_str());
    return false;
  }
  trace = st.trace;
  if (report) *report = st.report;
  return true;
}

// --- profile mode -----------------------------------------------------------

/// One parsed folded line: attribution tokens + call chain (root first).
struct FoldedStack {
  std::string worker;  ///< "worker:3" / "pool:1" ("" = unattributed)
  std::string task;    ///< task kind ("" = none)
  std::vector<std::string> frames;
  long long count = 0;
};

bool parse_folded_line(const std::string& line, FoldedStack& out) {
  const std::size_t sp = line.rfind(' ');
  if (sp == std::string::npos || sp + 1 >= line.size()) return false;
  out.count = std::atoll(line.c_str() + sp + 1);
  if (out.count <= 0) return false;
  std::size_t pos = 0;
  const std::string stack = line.substr(0, sp);
  while (pos <= stack.size()) {
    std::size_t semi = stack.find(';', pos);
    if (semi == std::string::npos) semi = stack.size();
    std::string tok = stack.substr(pos, semi - pos);
    pos = semi + 1;
    if (tok.empty()) continue;
    if (out.frames.empty() && out.worker.empty() &&
        (tok.rfind("worker:", 0) == 0 || tok.rfind("pool:", 0) == 0))
      out.worker = tok;
    else if (out.frames.empty() && tok.rfind("task:", 0) == 0)
      out.task = tok.substr(5);
    else
      out.frames.push_back(std::move(tok));
  }
  return !out.frames.empty() || !out.worker.empty();
}

std::string clip(const std::string& s, std::size_t w) {
  return s.size() <= w ? s : s.substr(0, w - 3) + "...";
}

int run_profile(const std::string& path, int top) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "failed to open profile %s\n", path.c_str());
    return 2;
  }
  std::vector<FoldedStack> stacks;
  long long total = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    FoldedStack fs;
    if (parse_folded_line(line, fs)) {
      total += fs.count;
      stacks.push_back(std::move(fs));
    }
  }
  if (total == 0) {
    std::fprintf(stderr, "%s: no samples\n", path.c_str());
    return 2;
  }
  const auto pct = [&](long long c) { return 100.0 * static_cast<double>(c) / total; };

  std::printf("profile: %lld samples, %zu unique stacks (%s)\n\n", total, stacks.size(),
              path.c_str());

  // Hot stacks: the folded lines themselves, largest first.
  std::vector<const FoldedStack*> by_count;
  for (const FoldedStack& fs : stacks) by_count.push_back(&fs);
  std::sort(by_count.begin(), by_count.end(),
            [](const FoldedStack* x, const FoldedStack* y) { return x->count > y->count; });
  std::printf("hot stacks (top %d):\n", top);
  std::printf("  %7s %6s  %-10s %-16s %s\n", "samples", "%", "worker", "task", "leaf frame");
  for (int i = 0; i < top && i < static_cast<int>(by_count.size()); ++i) {
    const FoldedStack& fs = *by_count[i];
    std::printf("  %7lld %5.1f%%  %-10s %-16s %s\n", fs.count, pct(fs.count),
                fs.worker.empty() ? "-" : fs.worker.c_str(),
                fs.task.empty() ? "-" : clip(fs.task, 16).c_str(),
                fs.frames.empty() ? "?" : clip(fs.frames.back(), 90).c_str());
  }

  // Hot frames: self = leaf occurrences, total = stacks containing the
  // frame (each stack counted once, so recursion does not double-count).
  std::map<std::string, std::pair<long long, long long>> frames;  // self, total
  for (const FoldedStack& fs : stacks) {
    std::map<std::string, bool> seen;
    for (const std::string& fr : fs.frames)
      if (!seen[fr]) {
        seen[fr] = true;
        frames[fr].second += fs.count;
      }
    if (!fs.frames.empty()) frames[fs.frames.back()].first += fs.count;
  }
  std::vector<std::pair<std::string, std::pair<long long, long long>>> fsorted(frames.begin(),
                                                                               frames.end());
  std::sort(fsorted.begin(), fsorted.end(), [](const auto& x, const auto& y) {
    return x.second.first != y.second.first ? x.second.first > y.second.first
                                            : x.second.second > y.second.second;
  });
  std::printf("\nhot frames (top %d):\n", top);
  std::printf("  %6s %6s  %s\n", "self%", "total%", "frame");
  for (int i = 0; i < top && i < static_cast<int>(fsorted.size()); ++i)
    std::printf("  %5.1f%% %5.1f%%  %s\n", pct(fsorted[i].second.first),
                pct(fsorted[i].second.second), clip(fsorted[i].first, 110).c_str());

  // Attribution rollups.
  std::map<std::string, long long> by_task, by_worker;
  for (const FoldedStack& fs : stacks) {
    by_task[fs.task.empty() ? "(none)" : fs.task] += fs.count;
    by_worker[fs.worker.empty() ? "(none)" : fs.worker] += fs.count;
  }
  const auto print_rollup = [&](const char* title,
                                const std::map<std::string, long long>& m) {
    std::vector<std::pair<std::string, long long>> rows(m.begin(), m.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
    std::printf("\n%s:\n", title);
    for (const auto& [k, c] : rows)
      std::printf("  %6.1f%%  %7lld  %s\n", pct(c), c, k.c_str());
  };
  print_rollup("by task kind", by_task);
  print_rollup("by worker", by_worker);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage(argv[0]);
    return 2;
  }

  // Profile mode: render a folded-stack dump, no solve.
  if (!a.profile.empty()) return run_profile(a.profile, a.top);

  // Metrics-snapshot modes: pure file -> text renderings, no solve.
  if (!a.metrics.empty() || !a.metrics_diff_a.empty()) {
    namespace m = obs::metrics;
    const auto load = [](const std::string& path, m::Snapshot& out) {
      std::ifstream f(path);
      std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
      std::string err;
      if (!f || !m::parse_snapshot(text, out, &err)) {
        std::fprintf(stderr, "failed to load metrics snapshot %s: %s\n", path.c_str(),
                     err.empty() ? "cannot read file" : err.c_str());
        return false;
      }
      return true;
    };
    if (!a.metrics.empty()) {
      m::Snapshot s;
      if (!load(a.metrics, s)) return 2;
      std::fputs(m::render_snapshot(s).c_str(), stdout);
      return 0;
    }
    m::Snapshot sa, sb;
    if (!load(a.metrics_diff_a, sa) || !load(a.metrics_diff_b, sb)) return 2;
    std::fputs(m::render_diff(sa, sb).c_str(), stdout);
    return 0;
  }

  rt::Trace trace;
  obs::SolveReport report;
  double gemm_flops = 0.0, gemm_bytes = 0.0;
  int precision_bits = 64;
  if (!a.load.empty()) {
    std::string err;
    if (!obs::load_perfetto_trace_file(a.load, trace, &err)) {
      std::fprintf(stderr, "failed to load %s: %s\n", a.load.c_str(), err.c_str());
      return 2;
    }
    // The exporter embeds the solve-wide GEMM totals and the working
    // precision as named meta counters, so the roofline works (and scales
    // its peak correctly) on a bare trace file.
    gemm_flops = trace.meta_counter("gemm_flops");
    gemm_bytes = trace.meta_counter("gemm_packed_bytes");
    if (trace.meta_counter("precision_bits") == 32.0) precision_bits = 32;
    std::printf("==== dnc_trace: %s ====\n", a.load.c_str());
  } else {
    // Solve mode with --roofline: turn per-task counter sampling on for
    // the in-process run (without clobbering an explicit DNC_HWC choice
    // such as DNC_HWC=rusage).
    if (a.roofline) ::setenv("DNC_HWC", "1", /*overwrite=*/0);
    if (!run_solver(a, trace, &report)) return 2;
    gemm_flops = static_cast<double>(report.counter(obs::kGemmFlops));
    gemm_bytes = static_cast<double>(report.counter(obs::kGemmPackedBytes));
    precision_bits = report.precision_bits();
    std::printf("==== dnc_trace: %s solve, type %d, n=%ld, prec %s ====\n", a.driver.c_str(),
                a.type, a.n, report.precision.empty() ? "f64" : report.precision.c_str());
    if (report.tuned)
      std::printf("[tuning] applied %s (table %s)\n", report.tune_entry.c_str(),
                  report.tune_source.c_str());
  }
  std::printf("[build] %s (%s)\n\n", version::kGitCommit, version::kBuildType);

  // --- scheduler policy of the measured run ---
  if (!trace.sched_policy.empty()) {
    std::printf("-- scheduler --\npolicy: %s, peak ready-queue depth %d\n",
                trace.sched_policy.c_str(), trace.queue_depth_peak);
    if (!trace.sched_counters.empty()) {
      long steals = 0, attempts = 0, failed = 0, local = 0;
      long same_l3 = 0, same_socket = 0, cross_socket = 0;
      for (const auto& c : trace.sched_counters) {
        steals += c.steals;
        attempts += c.steal_attempts;
        failed += c.failed_steals;
        local += c.local_pops;
        same_l3 += c.steals_same_l3;
        same_socket += c.steals_same_socket;
        cross_socket += c.steals_cross_socket;
      }
      if (attempts > 0 || steals > 0)
        std::printf("steals: %ld ok / %ld attempts / %ld dry scans, local pops: %ld\n",
                    steals, attempts, failed, local);
      if (same_l3 + same_socket + cross_socket > 0)
        std::printf("steal locality: %ld same-L3 / %ld same-socket / %ld cross-socket\n",
                    same_l3, same_socket, cross_socket);
    }
    std::printf("\n");
  }

  // --- per-kernel split of the measured run ---
  std::printf("-- kernel time split --\n%s\n", trace.kernel_summary().c_str());

  // --- roofline: measured per-kind counters vs the machine peak ---
  if (a.roofline) {
    if (trace.hwc_backend.empty()) {
      std::printf("-- roofline --\n"
                  "(no hardware-counter data on this trace; re-run the solve with\n"
                  " DNC_HWC=1 so the slices carry counter deltas)\n\n");
    } else {
      const obs::Roofline roof =
          obs::roofline(trace, gemm_flops, gemm_bytes, a.peak_gflops, precision_bits);
      std::printf("-- roofline --\n%s\n", obs::render_roofline(roof).c_str());
    }
  }

  // --- critical path ---
  const obs::CriticalPath cp = obs::critical_path(trace);
  std::printf("-- critical path --\n%s\n", cp.render(trace).c_str());

  // --- span law + what-if sweep ---
  const obs::SpanLaw law = obs::span_law(trace);
  std::printf("-- work/span law --\nT1 = %.6f s, Tinf = %.6f s, parallelism = %.2f\n\n",
              law.t1, law.t_inf, law.parallelism);
  std::printf("-- what-if: replay on P virtual workers (bandwidth-aware FIFO replay) --\n");
  std::printf("%8s %12s %9s %9s %11s\n", "workers", "makespan(s)", "speedup", "eff",
              "span-bound");
  std::vector<rt::SimulationResult> replays;
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    const int w = a.workers[i];
    const rt::SimulationResult r = obs::replay_trace(trace, w);
    replays.push_back(r);
    std::printf("%8d %12.6f %9.2f %8.1f%% %11.2f\n", w, r.makespan,
                r.makespan > 0.0 ? replays[0].makespan / r.makespan : 0.0, 100.0 * r.efficiency,
                law.predicted_speedup(w));
  }
  std::printf("(speedup is vs the P=%d replay; span-bound is T1/max(T1/P, Tinf))\n\n",
              a.workers[0]);

  // --- what-if: scheduling policy. Replays the same DAG with priorities
  // honoured vs ignored (plain FIFO), showing what the priority annotations
  // buy at each worker count. ---
  std::printf("-- what-if: priority-aware vs FIFO list scheduling --\n");
  std::printf("%8s %14s %14s %9s\n", "workers", "priority(s)", "fifo(s)", "gain");
  std::vector<double> fifo_makespans;
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    const int w = a.workers[i];
    const rt::SimulationResult rf =
        obs::replay_trace(trace, w, rt::MachineModel{}, rt::SimPolicy::Fifo);
    fifo_makespans.push_back(rf.makespan);
    const double pri = replays[i].makespan;
    std::printf("%8d %14.6f %14.6f %+8.2f%%\n", w, pri, rf.makespan,
                pri > 0.0 ? 100.0 * (rf.makespan - pri) / pri : 0.0);
  }
  std::printf("(gain is FIFO makespan relative to the priority replay; positive\n"
              " means the priority annotations shorten the schedule)\n\n");

  // --- parallelism profile ---
  const obs::ParallelismProfile prof = obs::parallelism_profile(trace);
  std::printf("-- parallelism profile --\n%s\n", prof.ascii(a.profile_width).c_str());

  // --- optional nb sweep: the granularity trade-off (solve mode only) ---
  if (a.nb_sweep && a.load.empty() && a.driver != "mrrr") {
    std::printf("-- what-if: panel width nb (re-solving, simulated 16 workers) --\n");
    std::printf("%8s %12s %12s %9s\n", "nb", "T1(s)", "Tinf(s)", "speedup16");
    for (long div : {4, 6, 8, 12, 16, 24, 32}) {
      Args anb = a;
      anb.nb = std::max<long>(16, a.n / div);
      anb.workers = {16};
      rt::Trace tnb;
      if (!run_solver(anb, tnb)) break;
      const obs::SpanLaw lnb = obs::span_law(tnb);
      const rt::SimulationResult r1 = obs::replay_trace(tnb, 1);
      const rt::SimulationResult r16 = obs::replay_trace(tnb, 16);
      std::printf("%8ld %12.6f %12.6f %9.2f\n", anb.nb, lnb.t1, lnb.t_inf,
                  r16.makespan > 0.0 ? r1.makespan / r16.makespan : 0.0);
    }
    std::printf("\n");
  }

  // --- machine-readable dump ---
  if (!a.json_out.empty()) {
    std::string js = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"source\": \"%s\",\n  \"git_commit\": \"%s\",\n"
                  "  \"sched_policy\": \"%s\",\n"
                  "  \"t1\": %.9f,\n  \"t_inf\": %.9f,\n  \"parallelism\": %.6f,\n",
                  a.load.empty() ? a.driver.c_str() : a.load.c_str(), version::kGitCommit,
                  rt::json_escape(trace.sched_policy).c_str(), law.t1, law.t_inf,
                  law.parallelism);
    js += buf;
    js += "  \"critical_path_kinds\": {";
    bool first = true;
    for (std::size_t k = 0; k < cp.time_by_kind.size(); ++k) {
      if (cp.time_by_kind[k] <= 0.0) continue;
      std::snprintf(buf, sizeof buf, "%s\n    \"%s\": %.9f", first ? "" : ",",
                    rt::json_escape(trace.kind_names[k]).c_str(), cp.time_by_kind[k]);
      js += buf;
      first = false;
    }
    js += "\n  },\n  \"what_if\": [";
    for (std::size_t i = 0; i < replays.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\n    {\"workers\": %d, \"makespan\": %.9f, \"efficiency\": %.6f, "
                    "\"makespan_fifo\": %.9f}",
                    i ? "," : "", a.workers[i], replays[i].makespan, replays[i].efficiency,
                    fifo_makespans[i]);
      js += buf;
    }
    js += "\n  ],\n  \"profile\": ";
    js += prof.to_json();
    js += "}\n";
    std::ofstream f(a.json_out);
    f << js;
    std::printf("wrote %s\n", a.json_out.c_str());
  }
  return 0;
}
