// Per-layer measurements of a traced run: metrics derived from the trace
// and counters the solvers return, and the roofs they are compared with.
#include <algorithm>
#include <unistd.h>

#include "bench.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/timer.hpp"
#include "obs/analysis.hpp"
#include "obs/counters.hpp"
#include "runtime/engine.hpp"

namespace perfbench {
namespace {

const char* const kDcKinds[] = {"UpdateVect", "LAED4",    "ComputeVect",      "ComputeLocalW",
                                "ComputeDeflation", "STEDC", "PermuteV", "CopyBackDeflated",
                                "SortEigenvectors", "LASET"};
const char* const kMrrrKinds[] = {"Bisection", "ClusterShift", "RefineEig", "Getvec"};

double busy_of(const dnc::rt::Trace& tr, const std::vector<double>& busy, const char* kind) {
  for (std::size_t k = 0; k < tr.kind_names.size(); ++k)
    if (tr.kind_names[k] == kind) return busy[k];
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void scheduler_samples(const dnc::obs::SolveReport& rep, const dnc::rt::Trace& tr, Samples& s) {
  s["runtime.tasks"] = static_cast<double>(rep.scheduler.tasks);
  s["runtime.idle_s"] = rep.scheduler.total_idle;
  s["runtime.ready_wait_s_mean"] = rep.scheduler.avg_ready_wait;
  s["runtime.efficiency"] = rep.scheduler.efficiency;
  s["runtime.steals"] = static_cast<double>(rep.scheduler.steals);
  s["runtime.critical_path_s"] = dnc::obs::critical_path(tr).length;
  s["runtime.sim16_makespan_s"] = dnc::obs::replay_trace(tr, 16).makespan;
}

template <typename Real>
double gemm_gflops() {
  constexpr index_t n = 1000;
  std::vector<Real> a(n * n), b(n * n), c(n * n);
  dnc::Rng rng(7);
  for (auto* m : {&a, &b})
    for (auto& x : *m) x = static_cast<Real>(rng.uniform_sym());
  std::vector<double> rate;
  for (int rep = 0; rep < 5; ++rep) {
    dnc::Stopwatch sw;
    dnc::blas::gemm<Real>(dnc::blas::Trans::No, dnc::blas::Trans::No, n, n, n, Real(1), a.data(),
                          n, b.data(), n, Real(0), c.data(), n);
    rate.push_back(2.0 * n * n * n / sw.elapsed() / 1e9);
  }
  return median(rate);
}

}  // namespace

std::uint64_t llc_bytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::uint64_t>(v) : 32ull << 20;
}

Samples layer_samples(const SolverSpec& spec, const SolveTrace& st) {
  Samples s;
  using dnc::obs::Counter;
  if (spec.solver == Solver::Mrrr) {
    const auto& m = st.mrrr;
    const auto busy = m.trace.busy_by_kind();
    for (const char* k : kMrrrKinds) s[std::string("mrrr.busy_s.") + k] = busy_of(m.trace, busy, k);
    s["mrrr.sturm_steps"] = static_cast<double>(m.report.counter(Counter::kSturmSteps));
    s["mrrr.clusters"] = static_cast<double>(m.clusters);
    s["mrrr.depth"] = m.depth_used;
    scheduler_samples(m.report, m.trace, s);
    return s;
  }
  const auto& d = st.dc;
  const auto& rep = d.report;
  const auto busy = d.trace.busy_by_kind();
  for (const char* k : kDcKinds) s[std::string("dc.busy_s.") + k] = busy_of(d.trace, busy, k);

  // Bytes each copy kind moves, computed from the block sizes (read +
  // write; cache misses are not counted): PermuteV reads and writes every
  // merged m x m block, CopyBackDeflated its m x (m - k) deflated columns,
  // the final sort gathers and copies back n x n twice, LASET writes n x n.
  const double elt = spec.precision == dnc::Precision::F64 ? 8.0 : 4.0;
  const double n = static_cast<double>(d.n);
  double permute_bytes = 0.0, copyback_bytes = 0.0;
  for (const auto& mr : rep.merges) {
    permute_bytes += 2.0 * mr.m * mr.m * elt;
    copyback_bytes += 2.0 * mr.m * (mr.m - mr.k) * elt;
  }
  const double gb = 1e9;
  s["dc.copy_gbps.PermuteV"] = ratio(permute_bytes / gb, s["dc.busy_s.PermuteV"]);
  s["dc.copy_gbps.CopyBackDeflated"] = ratio(copyback_bytes / gb, s["dc.busy_s.CopyBackDeflated"]);
  s["dc.copy_gbps.SortEigenvectors"] = ratio(4.0 * n * n * elt / gb, s["dc.busy_s.SortEigenvectors"]);
  s["dc.copy_gbps.LASET"] = ratio(n * n * elt / gb, s["dc.busy_s.LASET"]);
  s["dc.deflated_frac"] =
      ratio(static_cast<double>(rep.deflated_total()), static_cast<double>(rep.merged_columns_total()));
  s["dc.merges"] = static_cast<double>(d.merges);

  s["blas.updatevect_gflops"] =
      ratio(static_cast<double>(rep.counter(Counter::kGemmFlops)) / gb, s["dc.busy_s.UpdateVect"]);
  const double roots = static_cast<double>(rep.counter(Counter::kLaed4Calls));
  s["lapack.laed4_ns_per_root"] = ratio(s["dc.busy_s.LAED4"] * 1e9, roots);
  s["lapack.laed4_iters_per_root"] =
      ratio(static_cast<double>(rep.counter(Counter::kLaed4Iterations)), roots);
  scheduler_samples(rep, d.trace, s);
  return s;
}

Roofs measure_roofs(int threads) {
  Roofs r;
  r.gemm_gflops = gemm_gflops<double>();
  r.gemm_gflops_f32 = gemm_gflops<float>();

  // Memory roof: one-thread copy between two arrays of 4x the LLC each.
  r.llc_bytes = llc_bytes();
  r.copy_array_bytes = 4 * r.llc_bytes;
  const index_t len = static_cast<index_t>(r.copy_array_bytes / sizeof(double));
  std::vector<double> src(len, 1.0), dst(len, 0.0);
  std::vector<double> gbps;
  for (int rep = 0; rep < 3; ++rep) {
    dnc::Stopwatch sw;
    dnc::blas::copy(len, src.data(), dst.data());
    gbps.push_back(2.0 * r.copy_array_bytes / sw.elapsed() / 1e9);
  }
  r.copy_gbps = median(gbps);

  // Runtime overhead: independent empty tasks through a fresh runtime.
  constexpr int kTasks = 20000;
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    dnc::rt::TaskGraph g;
    const dnc::rt::KindId kind = g.register_kind("Empty");
    dnc::rt::Runtime runtime(g, threads);
    dnc::Stopwatch sw;
    for (int t = 0; t < kTasks; ++t) g.submit(kind, [] {}, {});
    runtime.wait_all();
    ns.push_back(sw.elapsed() / kTasks * 1e9);
  }
  r.ns_per_task = median(ns);
  return r;
}

}  // namespace perfbench
