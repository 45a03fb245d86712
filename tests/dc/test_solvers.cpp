// End-to-end correctness of all four D&C drivers across the Table III
// matrix families, sizes, and tuning parameters.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "../support/precision_testing.hpp"
#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "common/version.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::dc {
namespace {

enum class Driver { Seq, Taskflow, Lapack, Scalapack };

// Whether the compiler instruments this build with a sanitizer whose
// allocator holds freed memory. version::kSanitize only reports the
// DNC_SANITIZE option; a sanitizer passed through CMAKE_CXX_FLAGS shows only
// here.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCompilerSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCompilerSanitizer = true;
#else
constexpr bool kCompilerSanitizer = false;
#endif
#else
constexpr bool kCompilerSanitizer = false;
#endif

void run_driver(Driver which, index_t n, double* d, double* e, Matrix& v, const Options& opt,
                SolveStats* st = nullptr) {
  switch (which) {
    case Driver::Seq: stedc_sequential(n, d, e, v, opt, st); break;
    case Driver::Taskflow: stedc_taskflow(n, d, e, v, opt, st); break;
    case Driver::Lapack: stedc_lapack_model(n, d, e, v, opt, st); break;
    case Driver::Scalapack: stedc_scalapack_model(n, d, e, v, opt, st); break;
  }
}

void expect_good_solution(const matgen::Tridiag& t, const std::vector<double>& lam,
                          const Matrix& v, double factor = 100.0) {
  // Epsilon of the active DNC_PREC working precision.
  const double eps = test_support::result_eps();
  const index_t n = t.n();
  EXPECT_LT(verify::orthogonality(v), factor * eps);
  EXPECT_LT(verify::reduction_residual(t, lam, v), factor * eps);
  EXPECT_LT(verify::eigenvalue_error_vs_bisection(t, lam), factor * n * eps);
  EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end()));
}

using Case = std::tuple<int /*driver*/, int /*type*/>;
class AllDrivers : public ::testing::TestWithParam<Case> {};

TEST_P(AllDrivers, SolvesTable3Type) {
  const auto [drv, type] = GetParam();
  const index_t n = 163;  // odd non-power-of-two exercises uneven splits
  auto t = matgen::table3_matrix(type, n, 77);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 32;
  opt.nb = 48;
  opt.threads = 3;
  run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, opt);
  expect_good_solution(t, d, v);
}

INSTANTIATE_TEST_SUITE_P(DriversTimesTypes, AllDrivers,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 2, 3, 4, 5, 7, 10, 11, 12,
                                                              14)));

TEST(Stedc, TinySizes) {
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{4}, index_t{5}}) {
    auto t = matgen::table3_matrix(10, n);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    stedc_sequential(n, d.data(), e.data(), v, {});
    expect_good_solution(t, d, v);
  }
}

TEST(Stedc, ZeroMatrix) {
  // Every driver takes the general path (no zero-matrix shortcut) and must
  // still return d = 0 and V = I exactly, across merges (n > minpart).
  for (int drv = 0; drv < 4; ++drv) {
    for (index_t n : {index_t{20}, index_t{300}}) {
      std::vector<double> d(n, 0.0), e(n - 1, 0.0);
      Matrix v;
      run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, {});
      for (double x : d) EXPECT_EQ(x, 0.0) << "driver " << drv << " n=" << n;
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_EQ(v(i, j), i == j ? 1.0 : 0.0) << "driver " << drv << " n=" << n;
    }
  }
}

// The input contract: a non-finite entry raises InvalidArgument before any
// task runs, from every driver, instead of aborting inside a task or
// returning non-finite eigenvalues.
class NonFiniteInput
    : public ::testing::TestWithParam<std::tuple<int /*driver*/, bool /*inf in e*/>> {};

TEST_P(NonFiniteInput, RaisesInvalidArgument) {
  const auto [drv, inf_in_e] = GetParam();
  const index_t n = 200;
  auto t = matgen::table3_matrix(4, n);
  if (inf_in_e)
    t.e[17] = std::numeric_limits<double>::infinity();
  else
    t.d[17] = std::numeric_limits<double>::quiet_NaN();
  Matrix v;
  Options opt;
  opt.threads = 2;
  EXPECT_THROW(run_driver(static_cast<Driver>(drv), n, t.d.data(), t.e.data(), v, opt),
               InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(DriversTimesDefects, NonFiniteInput,
                         ::testing::Combine(::testing::Range(0, 4), ::testing::Bool()));

// The emitter's two numeric variants: Sequential and Taskflow form the
// Gu-Eisenstat products per panel, the LAPACK and ScaLAPACK models once per
// merge. Within a pair the output is bit-identical, whatever the thread
// count.
TEST(Stedc, ExecutionModelPairsAgreeBitwise) {
  const index_t n = 230;
  const auto same_bits = [](const std::vector<double>& da, const Matrix& va,
                            const std::vector<double>& db, const Matrix& vb) {
    if (std::memcmp(da.data(), db.data(), da.size() * sizeof(double)) != 0) return false;
    for (index_t j = 0; j < va.cols(); ++j)
      if (std::memcmp(va.data() + j * va.ld(), vb.data() + j * vb.ld(),
                      va.rows() * sizeof(double)) != 0)
        return false;
    return true;
  };
  for (int type : {3, 4, 11}) {
    const auto t = matgen::table3_matrix(type, n, 5);
    Options opt;
    opt.minpart = 40;
    opt.nb = 48;
    const auto solve = [&](Driver drv, std::vector<double>& d, Matrix& v) {
      d = t.d;
      std::vector<double> e = t.e;
      run_driver(drv, n, d.data(), e.data(), v, opt);
    };
    std::vector<double> dseq, d;
    Matrix vseq, v;
    solve(Driver::Seq, dseq, vseq);
    for (int threads : {1, 2, 4}) {
      opt.threads = threads;
      solve(Driver::Taskflow, d, v);
      EXPECT_TRUE(same_bits(dseq, vseq, d, v)) << "type " << type << " threads " << threads;
    }
    std::vector<double> dlapack;
    Matrix vlapack;
    solve(Driver::Lapack, dlapack, vlapack);
    solve(Driver::Scalapack, d, v);
    EXPECT_TRUE(same_bits(dlapack, vlapack, d, v)) << "type " << type;
  }
}

// The secular matrices overwrite the merge's block of V, which the merge's
// PermuteV panels copy out, so every LAED4 task of a merge must be ordered
// after every PermuteV task of that merge. Only the empty PermuteV join
// orders them; the bitwise tests cannot see it, since one worker runs the
// tasks in submission order with or without the join.
TEST(Stedc, PermuteVJoinOrdersLaed4AfterEveryPermutePanel) {
  const index_t n = 300;
  const auto t = matgen::table3_matrix(4, n, 9);
  Options opt;
  opt.minpart = 40;
  opt.nb = 32;
  opt.threads = 2;
  for (Driver drv : {Driver::Taskflow, Driver::Lapack, Driver::Scalapack}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    SolveStats st;
    run_driver(drv, n, d.data(), e.data(), v, opt, &st);
    const rt::Trace& tr = st.trace;
    const auto kind = [&](const char* name) {
      const auto it = std::find(tr.kind_names.begin(), tr.kind_names.end(), name);
      return static_cast<int>(it - tr.kind_names.begin());
    };
    const int deflate = kind("ComputeDeflation"), permute = kind("PermuteV"),
              laed4 = kind("LAED4");
    std::map<std::uint64_t, std::vector<std::uint64_t>> preds;
    for (const auto& [p, s] : tr.edges) preds[s].push_back(p);
    const auto ancestors = [&](std::uint64_t id) {
      std::set<std::uint64_t> seen;
      std::vector<std::uint64_t> stack{id};
      while (!stack.empty()) {
        const std::uint64_t x = stack.back();
        stack.pop_back();
        for (std::uint64_t p : preds[x])
          if (seen.insert(p).second) stack.push_back(p);
      }
      return seen;
    };
    // The emitter submits each merge's tasks back to back, opened by its
    // ComputeDeflation, and task ids follow submission order.
    std::vector<const rt::TraceEvent*> events;
    for (const rt::TraceEvent& ev : tr.events)
      if (!ev.is_child()) events.push_back(&ev);
    std::sort(events.begin(), events.end(),
              [](const rt::TraceEvent* a, const rt::TraceEvent* b) {
                return a->task_id < b->task_id;
              });
    int merges = 0;
    long checked = 0;
    std::vector<std::uint64_t> permutes;
    for (const rt::TraceEvent* ev : events) {
      if (ev->kind == deflate) {
        ++merges;
        permutes.clear();
      } else if (ev->kind == permute) {
        permutes.push_back(ev->task_id);
      } else if (ev->kind == laed4) {
        const std::set<std::uint64_t> before = ancestors(ev->task_id);
        for (std::uint64_t p : permutes) {
          EXPECT_TRUE(before.count(p)) << "driver " << static_cast<int>(drv) << ": LAED4 task "
                                       << ev->task_id << " not after PermuteV task " << p;
          ++checked;
        }
      }
    }
    EXPECT_GT(merges, 1) << "driver " << static_cast<int>(drv);
    EXPECT_GE(checked, 2L * merges) << "driver " << static_cast<int>(drv);
  }
}

// The AVX-512 GEMM tiles (16x8 fp64, 32x8 fp32) keep the AVX2 per-element
// FMA order, kc blocking and small-volume cut-off, so a whole solve is
// bit-identical under the two tables in both working precisions.
TEST(Stedc, Avx512AndAvx2AgreeBitwise) {
  if (blas::simd::kernels_for(SimdIsa::Avx512) == nullptr)
    GTEST_SKIP() << "no AVX-512 kernel table on this host or build";
  const index_t n = 700;
  const auto t = matgen::table3_matrix(4, n, 1);
  for (Precision prec : {Precision::F64, Precision::F32}) {
    Options opt;
    opt.precision = prec;
    const auto solve = [&](SimdIsa isa, std::vector<double>& d, Matrix& v) {
      blas::simd::ScopedIsaOverride force(isa);
      d = t.d;
      std::vector<double> e = t.e;
      stedc_taskflow(n, d.data(), e.data(), v, opt);
    };
    std::vector<double> d2, d5;
    Matrix v2, v5;
    solve(SimdIsa::Avx2, d2, v2);
    solve(SimdIsa::Avx512, d5, v5);
    const char* name = precision_name(prec);
    ASSERT_EQ(std::memcmp(d2.data(), d5.data(), n * sizeof(double)), 0) << name;
    for (index_t j = 0; j < n; ++j)
      ASSERT_EQ(std::memcmp(&v2(0, j), &v5(0, j), n * sizeof(double)), 0)
          << name << " column " << j;
  }
}

TEST(Stedc, DiagonalMatrix) {
  const index_t n = 33;
  std::vector<double> d(n), e(n - 1, 0.0);
  for (index_t i = 0; i < n; ++i) d[i] = static_cast<double>((7 * i) % n);
  matgen::Tridiag t;
  t.d = d;
  t.e = e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  expect_good_solution(t, d, v);
}

TEST(Stedc, NegativeCouplings) {
  // Sign of e must not matter for correctness (rho < 0 path).
  const index_t n = 90;
  auto t = matgen::onetwoone(n);
  for (index_t i = 0; i < n - 1; i += 2) t.e[i] = -t.e[i];
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.minpart = 16;
  stedc_sequential(n, d.data(), e.data(), v, opt);
  expect_good_solution(t, d, v);
}

TEST(Stedc, LargeNormScaling) {
  const index_t n = 64;
  auto t = matgen::onetwoone(n);
  for (auto& x : t.d) x *= 1e150;
  for (auto& x : t.e) x *= 1e150;
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  expect_good_solution(t, d, v);
}

TEST(Stedc, SmallNormScaling) {
  const index_t n = 64;
  auto t = matgen::onetwoone(n);
  for (auto& x : t.d) x *= 1e-150;
  for (auto& x : t.e) x *= 1e-150;
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  stedc_sequential(n, d.data(), e.data(), v, {});
  expect_good_solution(t, d, v);
}

TEST(Stedc, DriversAgreeOnEigenvalues) {
  const index_t n = 120;
  auto t = matgen::table3_matrix(6, n, 3);
  std::vector<double> dref = t.d, eref = t.e;
  Matrix vref;
  Options opt;
  opt.minpart = 25;
  opt.nb = 32;
  opt.threads = 4;
  stedc_sequential(n, dref.data(), eref.data(), vref, opt);
  for (int drv = 1; drv < 4; ++drv) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    run_driver(static_cast<Driver>(drv), n, d.data(), e.data(), v, opt);
    const double tol = 1e-13 * test_support::tol_scale();
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(d[i], dref[i], tol * std::max(1.0, std::fabs(dref[i]))) << "driver " << drv;
  }
}

TEST(Stedc, PanelSizeSweep) {
  const index_t n = 140;
  auto t = matgen::table3_matrix(5, n, 11);
  for (index_t nb : {index_t{8}, index_t{33}, index_t{64}, index_t{200}}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.nb = nb;
    opt.minpart = 30;
    opt.threads = 2;
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    expect_good_solution(t, d, v);
  }
}

TEST(Stedc, MinpartSweep) {
  const index_t n = 150;
  auto t = matgen::table3_matrix(4, n, 13);
  for (index_t mp : {index_t{3}, index_t{10}, index_t{64}, index_t{149}, index_t{150}}) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    Options opt;
    opt.minpart = mp;
    stedc_sequential(n, d.data(), e.data(), v, opt);
    expect_good_solution(t, d, v);
  }
}

// The solve's scratch is one n x n workspace plus a panel copy of S per
// worker, as in LAPACK's dstedc: the peak-RSS growth of a large fp64 solve
// stays within 25 % of that plus the n x n output. The growth is measured
// against the process's high-water mark at solve start, so it is only
// informative in a fresh process (ctest runs each test in its own). What
// the formula leaves out is about 1 MiB per worker (GEMM packing buffers,
// stack, allocator arena), hence two workers: 21 MiB measured against a
// 22.5 MiB bound on a 4-vCPU x86-64 guest, where the three-matrix layout
// grows by 34 MiB.
TEST(Stedc, PeakRssGrowthIsOneWorkspacePlusOutput) {
  if (version::kSanitize || kCompilerSanitizer)
    GTEST_SKIP() << "sanitizer allocators hold freed memory";
  const index_t n = 1024;
  const auto t = matgen::table3_matrix(13, n);  // Legendre: no deflation, k = m
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  Options opt;
  opt.precision = Precision::F64;
  opt.threads = 2;
  SolveStats st;
  stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
  const obs::SolveReport::MemoryMetrics& mem = st.report.memory;
  if (mem.rss_hwm_bytes == 0) GTEST_SKIP() << "peak-RSS probe unavailable on this host";
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  const std::uint64_t output = nn * nn * sizeof(double);
  const std::uint64_t copies = static_cast<std::uint64_t>(opt.threads) * nn *
                               static_cast<std::uint64_t>(opt.nb);
  const std::uint64_t workspace = (nn * nn + copies) * sizeof(double);
  EXPECT_EQ(mem.output_bytes, output);
  EXPECT_EQ(mem.workspace_bytes, workspace);
  EXPECT_EQ(workspace_bytes(n, opt), workspace);
  EXPECT_LE(static_cast<double>(mem.rss_hwm_delta_bytes),
            1.25 * static_cast<double>(output + workspace))
      << "peak RSS grew by " << static_cast<double>(mem.rss_hwm_delta_bytes) / 1048576.0
      << " MiB";
}

TEST(Stedc, StatsAreFilled) {
  const index_t n = 100;
  auto t = matgen::table3_matrix(2, n);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  SolveStats st;
  Options opt;
  opt.minpart = 20;
  stedc_taskflow(n, d.data(), e.data(), v, opt, &st, {1, 4, 16});
  EXPECT_EQ(st.n, n);
  EXPECT_GT(st.merges, 0);
  EXPECT_GT(st.leaves, 0);
  EXPECT_GT(st.deflation_ratio, 0.9);  // type 2 deflates nearly everything
  ASSERT_EQ(st.simulated.size(), 3u);
  // More virtual workers can never increase the simulated makespan.
  EXPECT_GE(st.simulated[0].makespan + 1e-12, st.simulated[1].makespan);
  EXPECT_GE(st.simulated[1].makespan + 1e-12, st.simulated[2].makespan);
}

/// Minor page faults of the whole process so far.
long minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Resident set size of the process in bytes (VmRSS), 0 when unreadable.
std::uint64_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  return 0;
}

TEST(Stedc, RepeatedSolveReusesItsWorkspace) {
  if (version::kSanitize || kCompilerSanitizer)
    GTEST_SKIP() << "sanitizer allocators map and fault memory on their own schedule";
  const index_t n = 1024;
  const auto t = matgen::table3_matrix(13, n);
  Options opt;
  opt.precision = Precision::F64;
  opt.threads = 2;
  Matrix v;  // reused, like a caller's output in a solve loop
  long faults = 0;
  for (int solve = 0; solve < 2; ++solve) {
    std::vector<double> d = t.d, e = t.e;
    const long before = minor_faults();
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    faults = minor_faults() - before;
  }
  // The second solve finds the first one's workspace, so only small
  // allocations fault in again. A workspace mapped per solve faults in all
  // of its pages.
  const long workspace_pages = static_cast<long>(
      (n * n + opt.threads * n * opt.nb) * static_cast<index_t>(sizeof(double)) / 4096);
  EXPECT_LT(faults, workspace_pages / 4)
      << faults << " minor faults in the second solve; the workspace is " << workspace_pages
      << " pages";
}

TEST(Stedc, RepeatedFp32SolveReusesItsOutput) {
  if (version::kSanitize || kCompilerSanitizer)
    GTEST_SKIP() << "sanitizer allocators map and fault memory on their own schedule";
  const index_t n = 1024;
  const auto t = matgen::table3_matrix(15, n);
  // The fp32 eigenvectors, n x n floats, before they are widened into v.
  const long output_pages =
      static_cast<long>(n * n * static_cast<index_t>(sizeof(float)) / 4096);
  Options opt;
  opt.precision = Precision::F32;
  opt.threads = 1;  // no per-solve worker stacks to fault in
  Matrix v;  // reused, like a caller's output in a solve loop
  long faults = 0;
  for (int solve = 0; solve < 2; ++solve) {
    std::vector<double> d = t.d, e = t.e;
    const long before = minor_faults();
    stedc_taskflow(n, d.data(), e.data(), v, opt);
    faults = minor_faults() - before;
  }
  // The second solve finds the first one's fp32 output as well as its
  // workspace. An output mapped per solve faults in all of its pages.
  EXPECT_LT(faults, output_pages / 2)
      << faults << " minor faults in the second solve; the fp32 output is " << output_pages
      << " pages";
}

TEST(Stedc, ConcurrentCallersGetCorrectResults) {
  // Two callers solve different inputs at the same time; one of them finds
  // the kept workspace (and, in fp32, the kept fp32 output) taken and solves
  // in transient ones. Each result is bitwise the serial solve's.
  struct Case {
    matgen::Tridiag t;
    std::vector<double> d;
    Matrix v;
  };
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    Options opt;
    opt.precision = precision;
    opt.threads = 2;
    opt.minpart = 32;
    const auto solve = [&opt](const matgen::Tridiag& t, std::vector<double>& d, Matrix& v) {
      d = t.d;
      std::vector<double> e = t.e;
      stedc_taskflow(t.n(), d.data(), e.data(), v, opt);
    };
    Case ref[2] = {{matgen::table3_matrix(4, 420), {}, {}},
                   {matgen::table3_matrix(13, 360), {}, {}}};
    for (Case& c : ref) solve(c.t, c.d, c.v);
    for (int round = 0; round < 4; ++round) {
      Case got[2] = {{ref[0].t, {}, {}}, {ref[1].t, {}, {}}};
      std::thread other([&] { solve(got[1].t, got[1].d, got[1].v); });
      solve(got[0].t, got[0].d, got[0].v);
      other.join();
      for (int c = 0; c < 2; ++c) {
        SCOPED_TRACE(testing::Message() << precision_name(precision) << ", caller " << c
                                        << ", round " << round);
        ASSERT_EQ(got[c].d, ref[c].d);
        ASSERT_EQ(got[c].v.rows(), ref[c].v.rows());
        EXPECT_EQ(std::memcmp(got[c].v.data(), ref[c].v.data(), ref[c].v.size_bytes()), 0);
      }
    }
  }
}

TEST(Stedc, ReleaseWorkspaceReturnsItsPages) {
  if (version::kSanitize || kCompilerSanitizer)
    GTEST_SKIP() << "sanitizer allocators hold freed memory";
  const index_t n = 1024;
  const auto t = matgen::table3_matrix(13, n);
  std::vector<double> d = t.d, e = t.e;
  Options opt;
  opt.precision = Precision::F64;
  opt.threads = 2;
  Matrix v;
  stedc_taskflow(n, d.data(), e.data(), v, opt);
  const std::uint64_t kept = resident_bytes();
  if (kept == 0) GTEST_SKIP() << "VmRSS unavailable on this host";
  release_workspace();
  const std::uint64_t released = resident_bytes();
  EXPECT_GE(static_cast<double>(kept) - static_cast<double>(released),
            0.5 * static_cast<double>(workspace_bytes(n, opt)))
      << "VmRSS " << kept / 1024 << " kB -> " << released / 1024 << " kB";
}

TEST(Stedc, RepeatedSolveSameResult) {
  const index_t n = 80;
  auto t = matgen::table3_matrix(6, n, 21);
  std::vector<double> d1 = t.d, e1 = t.e, d2 = t.d, e2 = t.e;
  Matrix v1, v2;
  Options opt;
  opt.threads = 4;
  opt.minpart = 16;
  stedc_taskflow(n, d1.data(), e1.data(), v1, opt);
  stedc_taskflow(n, d2.data(), e2.data(), v2, opt);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(d1[i], d2[i]);  // deterministic
}

}  // namespace
}  // namespace dnc::dc
