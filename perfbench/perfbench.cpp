// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--cache-dir <dir>]
//   perfbench --workload <name> --seed <n> --setup-probe [--cache-dir <dir>]
//   perfbench --self-test [--cache-dir <dir>]
//
// One process runs one workload as a closed loop: a single caller thread
// starts the next solve when the previous one returns. The input is
// generated (or loaded from the cache) and given an independent sterf
// reference before anything is timed. --trace 0 prints the end-to-end
// metrics, --trace 1 the per-layer ones; the last line of standard output
// is one JSON object either way. README.md in this directory describes the
// workloads and every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_support.hpp"
#include "common/timer.hpp"
#include "common/version.hpp"
#include "lapack/refine.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Solver solver;
  dnc::Precision precision;
  int type;    ///< Table III type
  index_t n;   ///< matrix size
  int solves;  ///< timed solves of a 10-second run; scales with --seconds
};

// Solve counts are set so a run measures about --seconds on a 4-core Xeon;
// they are fixed per workload so the tail percentile is too.
const Workload kWorkloads[] = {
    {"gemm-bound", Solver::Taskflow, dnc::Precision::F64, 4, 2000, 70},
    {"mrrr", Solver::Mrrr, dnc::Precision::F64, 3, 512, 21},
    {"f32refine", Solver::Taskflow, dnc::Precision::F32RefineF64, 15, 1000, 35},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cache_dir = ".bench_build/perfbench-inputs";
  bool setup_probe = false;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--cache-dir <dir>] [--setup-probe]\n"
               "       perfbench --self-test [--cache-dir <dir>]\nworkloads:",
               why.c_str());
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--cache-dir") a.cache_dir = value();
    else if (k == "--setup-probe") a.setup_probe = true;
    else if (k == "--self-test") a.self_test = true;
    else usage("unknown argument " + k);
  }
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

int nproc() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

struct LoopResult {
  std::vector<double> solve_s;  ///< seconds per solve, in loop order
  double wall = 0.0;            ///< the loop, checks included
  double cpu = 0.0;
  int attempted = 0;
  int failed = 0;
  std::string first_failure;
};

/// Test hook: may corrupt (or throw on) the output of solve `i` of a loop.
using Inject = std::function<void(int i, SolveOut& out)>;

/// The closed loop: solve, check, repeat, `count` times. A solve that
/// throws or fails its check counts as failed. With `layers` each solve
/// returns its statistics.
LoopResult run_solves(const SolverSpec& spec, const Problem& p, int count, dnc::Rng& check_rng,
                      SolveOut& out, std::vector<Samples>* layers = nullptr,
                      const Inject& inject = {}) {
  LoopResult r;
  SolveTrace st;
  const double cpu0 = cpu_seconds();
  dnc::Stopwatch wall;
  for (int i = 0; i < count; ++i) {
    std::string why;
    try {
      dnc::Stopwatch sw;
      solve(spec, p, out, layers ? &st : nullptr);
      r.solve_s.push_back(sw.elapsed());
      if (inject) inject(i, out);
      why = quick_check(p, out.lam, out.v, check_rng);
    } catch (const std::exception& ex) {
      why = std::string("threw: ") + ex.what();
    }
    ++r.attempted;
    if (!why.empty()) {
      if (r.failed++ == 0) r.first_failure = why;
    } else if (layers) {
      layers->push_back(layer_samples(spec, st));
    }
  }
  r.wall = wall.elapsed();
  r.cpu = cpu_seconds() - cpu0;
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-34s %-22.9g %s\n", name.c_str(), value, unit.c_str());
}

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) print_metric(m.name, m.value, m.unit);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_meta(const Args& a, const Workload& w, int threads, int solves, double tail_pct) {
  std::string line = "# meta";
  const auto add = [&](const std::string& k, const std::string& v) { line += " " + k + "=" + v; };
  for (const auto& [k, v] : dnc::bench::machine_metadata()) add(k, v);
  add("nproc", std::to_string(nproc()));
  add("workers", std::to_string(threads));
  add("llc_bytes", std::to_string(llc_bytes()));
  add("workload", w.name);
  add("seed", std::to_string(a.seed));
  add("seconds", std::to_string(a.seconds));
  add("trace", std::to_string(a.trace));
  add("solves", std::to_string(solves));
  char pct[32];
  std::snprintf(pct, sizeof pct, "%.2f", tail_pct);
  add("tail_percentile", pct);
  std::printf("%s\n", line.c_str());
}

/// Refuses timings from a build that is not optimised or is sanitized.
void require_timing_build() {
  const std::string type = dnc::version::kBuildType;
  bool optimised = type == "Release" || type == "RelWithDebInfo";
  bool sanitized = dnc::version::kSanitize;
#ifndef __OPTIMIZE__
  optimised = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (!optimised || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing a timed run from a %s%s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 type.empty() ? "(no build type)" : type.c_str(), sanitized ? " sanitizer" : "");
    std::exit(3);
  }
}

/// Full check of the last timed output; a throw fails it.
FullCheck check_last(const SolverSpec& spec, const Problem& p, const SolveOut& last) {
  try {
    return full_check(p, last.lam, last.v, spec.precision);
  } catch (const std::exception& ex) {
    std::printf("# full check threw: %s\n", ex.what());
    return FullCheck{};
  }
}

/// Median seconds of `reps` solves of `p` with `spec`.
double solve_seconds(const SolverSpec& spec, const Problem& p, int reps) {
  SolveOut out;
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    dnc::Stopwatch sw;
    solve(spec, p, out);
    t.push_back(sw.elapsed());
  }
  return median(t);
}

/// lapack.refine_*: the F32 solve, then refine_eigenpairs timed on its own
/// against the original fp64 tridiagonal, as stedc_taskflow does under
/// F32RefineF64.
void refine_layer(const SolverSpec& spec, const Problem& p, std::vector<Metric>& out) {
  double seconds = 0.0, iters = 0.0, cols = 0.0;
  if (spec.precision == dnc::Precision::F32RefineF64) {
    SolverSpec f32 = spec;
    f32.precision = dnc::Precision::F32;
    SolveOut o;
    std::vector<double> t, it, c;
    for (int rep = 0; rep < 3; ++rep) {
      solve(f32, p, o);
      dnc::Stopwatch sw;
      const auto rr = dnc::lapack::refine_eigenpairs(p.n, p.t.d.data(), p.t.e.data(),
                                                     o.lam.data(), o.v.data(), o.v.ld(), p.n);
      t.push_back(sw.elapsed());
      it.push_back(static_cast<double>(rr.iterations));
      c.push_back(static_cast<double>(rr.refined));
    }
    seconds = median(t);
    iters = median(it);
    cols = median(c);
  }
  out.push_back({"lapack.refine_s", seconds, "s"});
  out.push_back({"lapack.refine_iters", iters, "count"});
  out.push_back({"lapack.refine_cols", cols, "count"});
}

// The per-layer metrics taken from every traced solve, with units. Those
// of a layer the workload's solver does not run read 0.
const std::pair<const char*, const char*> kSampledLayers[] = {
    {"dc.busy_s.UpdateVect", "s"},
    {"dc.busy_s.LAED4", "s"},
    {"dc.busy_s.ComputeVect", "s"},
    {"dc.busy_s.ComputeLocalW", "s"},
    {"dc.busy_s.ComputeDeflation", "s"},
    {"dc.busy_s.STEDC", "s"},
    {"dc.busy_s.PermuteV", "s"},
    {"dc.busy_s.CopyBackDeflated", "s"},
    {"dc.busy_s.SortEigenvectors", "s"},
    {"dc.busy_s.LASET", "s"},
    {"dc.copy_gbps.PermuteV", "GB/s"},
    {"dc.copy_gbps.CopyBackDeflated", "GB/s"},
    {"dc.copy_gbps.SortEigenvectors", "GB/s"},
    {"dc.copy_gbps.LASET", "GB/s"},
    {"dc.deflated_frac", "frac"},
    {"dc.merges", "count"},
    {"lapack.laed4_ns_per_root", "ns"},
    {"lapack.laed4_iters_per_root", "count"},
    {"runtime.tasks", "count"},
    {"runtime.idle_s", "s"},
    {"runtime.ready_wait_s_mean", "s"},
    {"runtime.efficiency", "frac"},
    {"runtime.steals", "count"},
    {"runtime.critical_path_s", "s"},
    {"runtime.sim16_makespan_s", "s"},
    {"mrrr.busy_s.Bisection", "s"},
    {"mrrr.busy_s.ClusterShift", "s"},
    {"mrrr.busy_s.RefineEig", "s"},
    {"mrrr.busy_s.Getvec", "s"},
    {"mrrr.sturm_steps", "count"},
    {"mrrr.clusters", "count"},
    {"mrrr.depth", "count"},
};

double sample_median(const std::vector<Samples>& samples, const std::string& name) {
  std::vector<double> v;
  for (const auto& s : samples)
    if (auto it = s.find(name); it != s.end()) v.push_back(it->second);
  return v.empty() ? 0.0 : median(v);
}

/// Accuracy as decimal digits: -log10 of a Fig. 9 ratio.
double digits(double ratio) { return -std::log10(std::max(ratio, 1e-300)); }

int run_workload(const Args& a) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads)
    if (a.workload == w.name) wp = &w;
  if (!wp) usage("unknown workload '" + a.workload + "'");
  const Workload& w = *wp;
  require_timing_build();

  const SolverSpec spec{w.solver, w.precision, nproc()};
  dnc::Stopwatch input_sw;
  const Problem p = load_problem(a.cache_dir, w.type, w.n, a.seed);
  const double input_s = input_sw.elapsed();
  const int solves = std::max(21, static_cast<int>(std::lround(w.solves * a.seconds / 10.0)));
  dnc::Rng check_rng(a.seed);
  SolveOut out;

  // Set-up: the first solve of the process, apart from the timed loop.
  const LoopResult setup = run_solves(spec, p, 1, check_rng, out);
  const double setup_s = setup.solve_s.empty() ? 0.0 : setup.solve_s[0];
  if (a.setup_probe) {
    std::printf("{\"setup_s\": %.17g, \"attempted\": %d, \"failed\": %d}\n", setup_s,
                setup.attempted, setup.failed);
    return 0;
  }

  // The tail is the highest percentile with ten solves beyond it.
  const double tail_pct = 100.0 * (solves - 10) / solves;
  print_meta(a, w, spec.threads, solves, tail_pct);

  int attempted = 0, failed = 0;
  const auto account = [&](const LoopResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed) std::printf("# %d solve(s) failed; first: %s\n", r.failed, r.first_failure.c_str());
  };
  account(setup);

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    const LoopResult r = run_solves(spec, p, solves, check_rng, out);
    account(r);
    const FullCheck fc = check_last(spec, p, out);
    if (!fc.ok) std::printf("# full check failed\n");
    std::printf("# phases: input %.3f s, timed loop %.3f s, full check %.3f s\n", input_s, r.wall,
                fc.seconds);
    std::vector<double> sorted = r.solve_s;
    std::sort(sorted.begin(), sorted.end());
    const double tail = sorted.size() > 10 ? sorted[sorted.size() - 11] : 0.0;
    print_metric("failed_frac", static_cast<double>(failed) / attempted, "frac");
    print_metric("residual", fc.residual, "ratio");
    print_metric("orthogonality", fc.orthogonality, "ratio");
    metrics = {
        {"setup_s", setup_s, "s"},
        {"solve_s_p50", sorted.empty() ? 0.0 : median(sorted), "s"},
        {"solve_s_tail", tail, "s"},
        {"solves_per_s", (r.attempted - r.failed) / r.wall, "1/s"},
        {"cpu_s_per_solve", r.cpu / r.attempted, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"residual_digits", digits(fc.residual), "digits"},
        {"orthogonality_digits", digits(fc.orthogonality), "digits"},
    };
    print_result(fc.ok && failed == 0, attempted, failed, metrics);
    return 0;
  }

  // Traced run: half the solves without and half with per-solve
  // statistics; the difference is the tracing overhead.
  const int half = std::max(11, solves / 2);
  const LoopResult ru = run_solves(spec, p, half, check_rng, out);
  account(ru);
  std::vector<Samples> samples;
  const LoopResult rt = run_solves(spec, p, half, check_rng, out, &samples);
  account(rt);
  const FullCheck fc = check_last(spec, p, out);

  for (const auto& [name, unit] : kSampledLayers)
    metrics.push_back({name, sample_median(samples, name), unit});

  const Roofs roofs = measure_roofs(spec.threads);
  std::printf("# roofs: gemm n=1000 one thread; copy arrays %llu bytes each = 4 x LLC %llu bytes\n",
              static_cast<unsigned long long>(roofs.copy_array_bytes),
              static_cast<unsigned long long>(roofs.llc_bytes));
  const double updatevect = sample_median(samples, "blas.updatevect_gflops");
  const double roof =
      w.precision == dnc::Precision::F64 ? roofs.gemm_gflops : roofs.gemm_gflops_f32;
  metrics.push_back({"blas.gemm_roof_gflops", roofs.gemm_gflops, "GFLOP/s"});
  metrics.push_back({"blas.gemm_roof_gflops_f32", roofs.gemm_gflops_f32, "GFLOP/s"});
  metrics.push_back({"blas.updatevect_gflops", updatevect, "GFLOP/s"});
  metrics.push_back({"blas.updatevect_pct_roof", 100.0 * updatevect / roof, "%"});
  metrics.push_back({"blas.copy_gbps", roofs.copy_gbps, "GB/s"});
  refine_layer(spec, p, metrics);

  // Speed-up over the one-thread baseline on the same matrix:
  // stedc_sequential for D&C, the MRRR solver on one worker for MRRR.
  const double p50_untraced = median(ru.solve_s);
  SolverSpec base = spec;
  if (w.solver == Solver::Mrrr)
    base.threads = 1;
  else
    base.solver = Solver::Sequential;
  metrics.push_back({"runtime.speedup_vs_sequential", solve_seconds(base, p, 3) / p50_untraced, "x"});
  metrics.push_back({"runtime.ns_per_task", roofs.ns_per_task, "ns"});
  metrics.push_back({"matgen.gen_s", p.gen_s, "s"});
  metrics.push_back({"verify.full_check_s", fc.seconds, "s"});
  metrics.push_back({"obs.trace_overhead_frac", median(rt.solve_s) / p50_untraced - 1.0, "frac"});
  print_result(fc.ok && failed == 0, attempted, failed, metrics);
  return 0;
}

// ---- self-test: the checks must catch corrupted output ----

int self_test(const Args& a) {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++bad;
  };
  const Problem p = load_problem(a.cache_dir, 4, 300, 11);
  const SolverSpec spec{Solver::Taskflow, dnc::Precision::F64, 2};
  SolveOut out;
  solve(spec, p, out);
  dnc::Rng rng(1);
  expect(quick_check(p, out.lam, out.v, rng).empty(), "clean solve passes the quick check");
  expect(full_check(p, out.lam, out.v, spec.precision).ok, "clean solve passes the full check");

  const auto caught = [&](const std::function<void(SolveOut&)>& corrupt) {
    SolveOut o = out;
    corrupt(o);
    return !quick_check(p, o.lam, o.v, rng).empty();
  };
  const index_t j = p.n / 2;
  expect(caught([&](SolveOut& o) {
           o.lam[j] += 1e-6 * p.tnorm;
           o.v.data()[j * o.v.ld()] += 1e-6;
         }),
         "perturbed eigenpair is caught");
  expect(caught([&](SolveOut& o) {
           for (index_t k = 0; k < p.n * p.n; ++k) o.v.data()[k] *= 1.0 + 1e-6;
         }),
         "eigenvectors off unit norm are caught");
  expect(caught([&](SolveOut& o) {
           // Each column replaced by its neighbour: unit norm, wrong pair.
           for (index_t c = 0; c < p.n; ++c)
             std::copy_n(out.v.data() + ((c + 1) % p.n) * p.n, p.n, o.v.data() + c * p.n);
         }),
         "mismatched eigenvectors are caught");
  expect(caught([&](SolveOut& o) { o.lam[j] = std::nan(""); }), "NaN eigenvalue is caught");
  expect(caught([&](SolveOut& o) { std::swap(o.lam[0], o.lam[p.n - 1]); }),
         "unsorted eigenvalues are caught");
  dnc::Matrix bent = out.v;
  bent.data()[j * bent.ld()] += 1e-6;
  expect(!full_check(p, out.lam, bent, spec.precision).ok,
         "perturbed eigenvector fails the full check");

  // The loop must count an injected bad eigenpair and a throwing solve.
  const LoopResult r = run_solves(spec, p, 6, rng, out, nullptr, [&](int i, SolveOut& o) {
    if (i == 2) o.lam[j] += 1e-6 * p.tnorm;
    if (i == 4) throw std::runtime_error("injected");
  });
  expect(r.attempted == 6 && r.failed == 2, "timed loop counts 2 failures out of 6 attempts");
  std::printf("self-test: %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    if (a.self_test) return perfbench::self_test(a);
    if (a.workload.empty()) perfbench::usage("--workload is required");
    return perfbench::run_workload(a);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
