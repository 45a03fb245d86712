// google-benchmark microbenchmarks of the computational kernels the solver
// is built from: GEMM (the UpdateVect workhorse), the leaf eigensolver,
// the secular equation solver, the refinement's shifted-tridiagonal LU,
// the deflation scan, and the runtime's task
// submission/dispatch overhead (which bounds the useful panel granularity).
//
// Kernels behind the SIMD dispatch (gemm microkernel, axpy/dot, laed4, the
// LDL^T Sturm counts) are benchmarked once per available table (scalar /
// avx2 / avx512) so the speedup of the vector paths over the portable
// fallback is a recorded series. Unless --benchmark_out is given
// explicitly, results are also written to BENCH_kernels.json (the
// perf-trajectory artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include <string>
#include <type_traits>
#include <vector>

#include "blas/aux.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/simd/kernels.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dc/deflation.hpp"
#include "lapack/laed4.hpp"
#include "lapack/steqr.hpp"
#include "lapack/sterf.hpp"
#include "lapack/tridiag_lu.hpp"
#include "bench_support.hpp"
#include "matgen/tridiag.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace dnc;

template <typename Real>
void BM_GemmT(benchmark::State& state) {
  const index_t n = state.range(0);
  Rng rng(1);
  MatrixT<Real> a(n, n), b(n, n), c(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = static_cast<Real>(rng.uniform_sym());
      b(i, j) = static_cast<Real>(rng.uniform_sym());
    }
  for (auto _ : state) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, Real(1), a.data(), n, b.data(), n,
               Real(0), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
void BM_Gemm(benchmark::State& state) { BM_GemmT<double>(state); }
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);
// The fp32 fast path on the default dispatch: same sizes, 8-lane kernels.
void BM_GemmF32(benchmark::State& state) { BM_GemmT<float>(state); }
BENCHMARK(BM_GemmF32)->Arg(64)->Arg(128)->Arg(256);

void BM_Steqr(benchmark::State& state) {
  const index_t n = state.range(0);
  auto t = matgen::table3_matrix(6, n, 3);
  Matrix z(n, n);
  for (auto _ : state) {
    std::vector<double> d = t.d, e = t.e;
    lapack::steqr(lapack::CompZ::Identity, n, d.data(), e.data(), z.data(), n);
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_Steqr)->Arg(64)->Arg(128)->Arg(256);

// MRRR's serial root-eigenvalue step: eigenvalues only, on Table III
// type 3, the type of perfbench's mrrr workload.
void BM_Sterf(benchmark::State& state) {
  const index_t n = state.range(0);
  auto t = matgen::table3_matrix(3, n);
  for (auto _ : state) {
    std::vector<double> d = t.d, e = t.e;
    lapack::sterf(n, d.data(), e.data());
    benchmark::DoNotOptimize(d.data());
  }
}
BENCHMARK(BM_Sterf)->Arg(512)->Arg(2000);

void BM_Laed4(benchmark::State& state) {
  const index_t k = state.range(0);
  Rng rng(7);
  std::vector<double> d(k), z(k), delta(k);
  double acc = 0.0, nrm = 0.0;
  for (index_t i = 0; i < k; ++i) {
    acc += 0.01 + rng.uniform01();
    d[i] = acc;
    z[i] = 0.1 + rng.uniform01();
    nrm += z[i] * z[i];
  }
  for (auto& v : z) v /= std::sqrt(nrm);
  index_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lapack::laed4(k, i, d.data(), z.data(), 1.7, delta.data()));
    i = (i + 1) % k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Laed4)->Arg(128)->Arg(512)->Arg(2048);

// The shifted-tridiagonal LU of the refinement's RQI sweep
// (lapack/tridiag_lu.hpp): factor T - rho I and solve one right-hand side
// for 8 shifts inside the spectrum of the Hermite matrix (Table III type 15,
// the perfbench f32refine input), one shift at a time (scalar) or all 8 as
// the lanes of one batched LU (batch8). ns/row-shift is the time of one row
// of one shift's factor + solve: the layer roof of the sweep's solves.
void BM_TridiagLU(benchmark::State& state, bool batched) {
  const index_t n = state.range(0);
  constexpr int kShifts = lapack::TridiagLUBatch<double>::kLanes;
  const auto t = matgen::table3_matrix(15, n, 1);
  const double tnorm = blas::lanst_max<double>(n, t.d.data(), t.e.data());
  Rng rng(23);
  std::vector<double> rho(kShifts), rhs(n);
  for (double& x : rho) x = tnorm * rng.uniform_sym();
  for (double& x : rhs) x = rng.uniform_sym();
  lapack::TridiagLU<double> lu(n);
  lapack::TridiagLUBatch<double> lub(n);
  std::vector<double> x(static_cast<std::size_t>(n * kShifts));
  const Stopwatch sw;
  for (auto _ : state) {
    if (batched) {
      lub.factor(n, t.d.data(), t.e.data(), rho.data(), kShifts);
      for (index_t i = 0; i < n; ++i)
        for (int l = 0; l < kShifts; ++l) x[i * kShifts + l] = rhs[i];
      lub.solve(n, x.data(), kShifts);
    } else {
      for (int l = 0; l < kShifts; ++l) {
        lu.factor(n, t.d.data(), t.e.data(), rho[l]);
        std::copy(rhs.begin(), rhs.end(), x.begin() + l * n);
        lu.solve(n, x.data() + l * n);
      }
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns/row-shift"] =
      sw.elapsed() * 1e9 / (static_cast<double>(state.iterations()) * n * kShifts);
}
BENCHMARK_CAPTURE(BM_TridiagLU, scalar, false)->Arg(1000);
BENCHMARK_CAPTURE(BM_TridiagLU, batch8, true)->Arg(1000);

void BM_DeflationScan(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t n1 = m / 2;
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix q(m, m);
    blas::laset(m, m, 0.0, 1.0, q.data(), m);
    std::vector<double> d(m), z(m);
    std::vector<index_t> perm(m);
    double acc = 0, nrm = 0;
    for (index_t i = 0; i < m; ++i) {
      acc += rng.uniform01() < 0.3 ? 1e-14 : 0.01;  // some rotation candidates
      d[i] = acc;
      z[i] = rng.uniform_sym();
      nrm += z[i] * z[i];
    }
    for (auto& v : z) v /= std::sqrt(nrm);
    std::sort(d.begin(), d.begin() + n1);
    std::sort(d.begin() + n1, d.end());
    for (index_t i = 0; i < n1; ++i) perm[i] = i;
    for (index_t i = n1; i < m; ++i) perm[i] = i - n1;
    state.ResumeTiming();
    auto res = dc::deflate(n1, m - n1, d.data(), z.data(), 1.3, q.view(), perm.data(),
                           perm.data() + n1);
    benchmark::DoNotOptimize(res.k);
  }
}
BENCHMARK(BM_DeflationScan)->Arg(256)->Arg(1024);

void BM_RuntimeTaskOverhead(benchmark::State& state) {
  // Cost of submit + dispatch + complete per (trivial) task: sets the floor
  // on useful task granularity (paper Section IV's nb discussion).
  for (auto _ : state) {
    rt::TaskGraph g;
    rt::Runtime r(g, 1);
    rt::Handle h;
    for (int i = 0; i < 1000; ++i) g.submit(0, [] {}, {{&h, rt::Access::GatherV}});
    r.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RuntimeTaskOverhead);

void BM_GathervDependencyTracking(benchmark::State& state) {
  // The paper's point: GATHERV keeps the dependency count per task O(1)
  // even with thousands of panel tasks on one handle.
  const int ntasks = state.range(0);
  for (auto _ : state) {
    rt::TaskGraph g;
    rt::Handle h;
    g.submit(0, [] {}, {{&h, rt::Access::InOut}});
    for (int i = 0; i < ntasks; ++i) g.submit(0, [] {}, {{&h, rt::Access::GatherV}});
    g.submit(0, [] {}, {{&h, rt::Access::InOut}});
    benchmark::DoNotOptimize(g.task_count());
  }
  state.SetItemsProcessed(state.iterations() * ntasks);
}
BENCHMARK(BM_GathervDependencyTracking)->Arg(100)->Arg(10000);

// ---------------------------------------------------------------------------
// SIMD-dispatch kernels, benchmarked per available table. Each entry forces
// one table via ScopedIsaOverride so the scalar-vs-vector ratio is measured
// in one run of one binary; BM_Gemm above stays on the default dispatch and
// doubles as the "what users get" number.

template <typename Real>
void BM_MicrokernelPacked(benchmark::State& state, SimdIsa isa) {
  // The table's main register microkernel (8x4 up to AVX2, 16x8 / 32x8 for
  // AVX-512) over already-packed panels: the inner loop every GEMM flop
  // goes through. kc matches the production blocking.
  const index_t kc = 256;
  const blas::simd::KernelTableT<Real>* kt = blas::simd::kernels_for_t<Real>(isa);
  const index_t mr = kt->mr, nr = kt->nr;
  Rng rng(3);
  std::vector<Real> ap(mr * kc), bp(kc * nr), c(mr * nr, Real(0));
  for (auto& v : ap) v = static_cast<Real>(rng.uniform_sym());
  for (auto& v : bp) v = static_cast<Real>(rng.uniform_sym());
  blas::simd::ScopedIsaOverride force(isa);
  for (auto _ : state) {
    kt->mk(kc, ap.data(), bp.data(), Real(1), Real(0), c.data(), mr, mr, nr);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * mr * nr * kc * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

template <typename Real>
void BM_GemmForcedIsa(benchmark::State& state, SimdIsa isa) {
  const index_t n = state.range(0);
  Rng rng(1);
  MatrixT<Real> a(n, n), b(n, n), c(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      a(i, j) = static_cast<Real>(rng.uniform_sym());
      b(i, j) = static_cast<Real>(rng.uniform_sym());
    }
  blas::simd::ScopedIsaOverride force(isa);
  for (auto _ : state) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, Real(1), a.data(), n, b.data(), n,
               Real(0), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

template <typename Real>
void BM_AxpyForcedIsa(benchmark::State& state, SimdIsa isa) {
  const index_t n = state.range(0);
  Rng rng(11);
  std::vector<Real> x(n), y(n);
  for (auto& v : x) v = static_cast<Real>(rng.uniform_sym());
  for (auto& v : y) v = static_cast<Real>(rng.uniform_sym());
  blas::simd::ScopedIsaOverride force(isa);
  for (auto _ : state) {
    blas::axpy(n, Real(1.000000001), x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

template <typename Real>
void BM_DotForcedIsa(benchmark::State& state, SimdIsa isa) {
  const index_t n = state.range(0);
  Rng rng(13);
  std::vector<Real> x(n), y(n);
  for (auto& v : x) v = static_cast<Real>(rng.uniform_sym());
  for (auto& v : y) v = static_cast<Real>(rng.uniform_sym());
  blas::simd::ScopedIsaOverride force(isa);
  for (auto _ : state) benchmark::DoNotOptimize(blas::dot(n, x.data(), y.data()));
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

template <typename Real>
void BM_Laed4ForcedIsa(benchmark::State& state, SimdIsa isa) {
  const index_t k = state.range(0);
  Rng rng(7);
  std::vector<Real> d(k), z(k), delta(k);
  Real acc = 0, nrm = 0;
  for (index_t i = 0; i < k; ++i) {
    acc += Real(0.01) + static_cast<Real>(rng.uniform01());
    d[i] = acc;
    z[i] = Real(0.1) + static_cast<Real>(rng.uniform01());
    nrm += z[i] * z[i];
  }
  for (auto& v : z) v /= std::sqrt(nrm);
  blas::simd::ScopedIsaOverride force(isa);
  index_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lapack::laed4(k, i, d.data(), z.data(), Real(1.7), delta.data()));
    i = (i + 1) % k;
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Real>
void BM_SturmCountsForcedIsa(benchmark::State& state, SimdIsa isa) {
  // One table's sturm_counts_ldl on a random n x n L D L^T at 64 shifts (a
  // whole number of passes for every table). ns/lane-step is the time of
  // one pivot-recurrence step of one shift, the unit mrrr.sturm_steps
  // counts.
  const index_t n = state.range(0);
  const index_t m = 64;
  const blas::simd::KernelTableT<Real>* kt = blas::simd::kernels_for_t<Real>(isa);
  Rng rng(17);
  std::vector<Real> d(n), l(n - 1), ld(n - 1), x(m);
  std::vector<index_t> counts(m);
  for (auto& v : d) v = static_cast<Real>(rng.uniform_sym());
  for (index_t i = 0; i + 1 < n; ++i) {
    l[i] = static_cast<Real>(rng.uniform_sym());
    ld[i] = l[i] * d[i];
  }
  for (auto& v : x) v = static_cast<Real>(3 * rng.uniform_sym());
  blas::simd::ScopedIsaOverride force(isa);
  const Stopwatch sw;
  for (auto _ : state) {
    kt->sturm_counts_ldl(n, d.data(), l.data(), ld.data(), x.data(), m, counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.counters["ns/lane-step"] =
      sw.elapsed() * 1e9 / (static_cast<double>(state.iterations()) * m * n);
}

template <typename Real>
void register_dispatch_benchmarks_for() {
  // fp64 rows keep their historical names ("BM_GemmForcedIsa/avx2"); fp32
  // rows append "_f32" so both series live side by side in the artifact.
  const bool f32 = std::is_same_v<Real, float>;
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (blas::simd::kernels_for_t<Real>(isa) == nullptr) continue;
    const std::string tag = std::string(simd_isa_name(isa)) + (f32 ? "_f32" : "");
    benchmark::RegisterBenchmark(
        ("BM_MicrokernelPacked/" + tag).c_str(),
        [isa](benchmark::State& s) { BM_MicrokernelPacked<Real>(s, isa); });
    benchmark::RegisterBenchmark(("BM_GemmForcedIsa/" + tag).c_str(),
                                 [isa](benchmark::State& s) { BM_GemmForcedIsa<Real>(s, isa); })
        ->Arg(128)->Arg(256);
    benchmark::RegisterBenchmark(("BM_AxpyForcedIsa/" + tag).c_str(),
                                 [isa](benchmark::State& s) { BM_AxpyForcedIsa<Real>(s, isa); })
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_DotForcedIsa/" + tag).c_str(),
                                 [isa](benchmark::State& s) { BM_DotForcedIsa<Real>(s, isa); })
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_Laed4ForcedIsa/" + tag).c_str(),
                                 [isa](benchmark::State& s) { BM_Laed4ForcedIsa<Real>(s, isa); })
        ->Arg(512);
    benchmark::RegisterBenchmark(
        ("BM_SturmCountsForcedIsa/" + tag).c_str(),
        [isa](benchmark::State& s) { BM_SturmCountsForcedIsa<Real>(s, isa); })
        ->Arg(512);
  }
}

void register_dispatch_benchmarks() {
  register_dispatch_benchmarks_for<double>();
  register_dispatch_benchmarks_for<float>();
}

}  // namespace

int main(int argc, char** argv) {
  register_dispatch_benchmarks();
  for (const auto& [key, value] : dnc::bench::machine_metadata())
    benchmark::AddCustomContext(key, value);
  // Default to writing BENCH_kernels.json next to the invocation unless the
  // caller picked an output themselves.
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
