#include "mrrr/mrrr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "../support/precision_testing.hpp"
#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "matgen/application.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::mrrr {
namespace {

void expect_mrrr_quality(const matgen::Tridiag& t, const std::vector<double>& lam,
                         const Matrix& v, double orth_bound = 1e-13) {
  // MRRR targets O(n eps) orthogonality -- looser than D&C, which is
  // exactly the paper's Figure 9 finding. The bounds are calibrated for
  // fp64 and scale with the working epsilon under DNC_PREC=f32.
  const double ts = test_support::tol_scale();
  EXPECT_LT(verify::orthogonality(v), orth_bound * ts);
  EXPECT_LT(verify::reduction_residual(t, lam, v), 1e-13 * ts);
  EXPECT_LT(verify::eigenvalue_error_vs_bisection(t, lam),
            1e-12 * ts);  // bisection-vs-perturbed-matrix tolerance
  EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end()));
}

class MrrrTypes : public ::testing::TestWithParam<int> {};

TEST_P(MrrrTypes, SolvesTable3) {
  const int type = GetParam();
  const index_t n = 150;
  auto t = matgen::table3_matrix(type, n, 31);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 3;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt);
  expect_mrrr_quality(t, lam, v);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MrrrTypes, ::testing::Range(1, 16));

TEST(Mrrr, TinySizes) {
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}}) {
    auto t = matgen::onetwoone(n);
    std::vector<double> lam;
    Matrix v;
    mrrr_solve(n, t.d.data(), t.e.data(), lam, v);
    expect_mrrr_quality(t, lam, v);
  }
}

TEST(Mrrr, WilkinsonEvenPairs) {
  // The historically hard case: even-n Wilkinson has eigenvalue pairs equal
  // to the last bit.
  auto t = matgen::wilkinson(100);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(100, t.d.data(), t.e.data(), lam, v);
  expect_mrrr_quality(t, lam, v);
}

TEST(Mrrr, GluedWilkinson) {
  Rng rng(1);
  auto t = matgen::glued_wilkinson(21, 6, 1e-7);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(t.n(), t.d.data(), t.e.data(), lam, v);
  // Glued Wilkinson is the canonical hard case for MRRR: expect a couple of
  // digits of orthogonality loss (the paper's Fig. 9 shows the same for
  // MR3-SMP) but still a usable decomposition.
  expect_mrrr_quality(t, lam, v, 1e-11);
}

TEST(Mrrr, DiagonalMatrixSplitsToBlocks) {
  const index_t n = 50;
  matgen::Tridiag t;
  t.d.resize(n);
  t.e.assign(n - 1, 0.0);
  for (index_t i = 0; i < n; ++i) t.d[i] = std::sin(static_cast<double>(i));
  std::vector<double> lam;
  Matrix v;
  Stats st;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, {}, &st);
  EXPECT_EQ(st.blocks, n);
  expect_mrrr_quality(t, lam, v);
}

TEST(Mrrr, StatsAndSimulation) {
  auto t = matgen::table3_matrix(5, 200, 9);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  opt.grain = 8;  // enough tasks for the simulator to overlap
  Stats st;
  mrrr_solve(200, t.d.data(), t.e.data(), lam, v, opt, &st, {1, 16});
  EXPECT_EQ(st.n, 200);
  EXPECT_GT(st.trace.events.size(), 0u);
  ASSERT_EQ(st.simulated.size(), 2u);
  EXPECT_GE(st.simulated[0].makespan + 1e-12, st.simulated[1].makespan);
  // MRRR's per-vector tasks parallelise well: expect real speedup at 16
  // virtual workers.
  EXPECT_GT(st.simulated[0].makespan / st.simulated[1].makespan, 1.3);
}

// Every Sturm count MRRR makes runs through sturm_count_ldl, which must
// feed the sturm_steps counter that reports and perfbench read.
TEST(Mrrr, SturmStepsCounted) {
  const index_t n = 200;
  auto t = matgen::table3_matrix(3, n, 9);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.precision = Precision::F64;
  opt.threads = 2;
  Stats st;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
  EXPECT_GE(st.report.counter(obs::kSturmSteps), static_cast<std::uint64_t>(n));
}

// The fp32 tree runs the same refine_ldl passes, so its report counts its
// Sturm steps too (both precisions count n steps per lane per pass).
TEST(Mrrr, SturmStepsCountedInEveryPrecision) {
  const index_t n = 300;
  const auto t = matgen::table3_matrix(3, n);
  for (Precision prec : {Precision::F64, Precision::F32}) {
    std::vector<double> lam;
    Matrix v;
    Options opt;
    opt.precision = prec;
    opt.threads = 2;
    Stats st;
    mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
    EXPECT_GE(st.report.counter(obs::kSturmSteps), static_cast<std::uint64_t>(n))
        << precision_name(prec);
  }
}

// The report and the trace name the kernel table that ran, not the
// DNC_SIMD request, and the trace carries the solve meta the roofline
// reads, as the D&C drivers stamp it.
TEST(Mrrr, ReportAndTraceNameTheDispatchedTable) {
  const index_t n = 120;
  auto t = matgen::table3_matrix(3, n, 9);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  Stats st;
  {
    blas::simd::ScopedIsaOverride force(SimdIsa::Scalar);
    mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
  }
  EXPECT_EQ(st.report.simd_isa, "scalar");
  EXPECT_EQ(st.trace.meta_string("simd_isa"), "scalar");
  EXPECT_EQ(st.trace.meta_string("precision"), precision_name(opt.precision));
  EXPECT_EQ(st.trace.meta_counter("n"), static_cast<double>(n));
}

// Clustered spectra exercise the parallel cluster refinement: the output
// must not depend on the thread count, to the bit.
TEST(Mrrr, ThreadCountInvariance) {
  const index_t n = 200;
  const auto same_bits = [n](const std::vector<double>& la, const Matrix& va,
                              const std::vector<double>& lb, const Matrix& vb) {
    if (std::memcmp(la.data(), lb.data(), n * sizeof(double)) != 0) return false;
    for (index_t j = 0; j < n; ++j)
      if (std::memcmp(va.data() + j * va.ld(), vb.data() + j * vb.ld(), n * sizeof(double)) != 0)
        return false;
    return true;
  };
  for (int type : {1, 3, 5, 7, 11}) {
    auto t = matgen::table3_matrix(type, n, 8);
    std::vector<double> lam1;
    Matrix v1;
    Options o1;
    o1.threads = 1;
    o1.grain = 8;
    mrrr_solve(n, t.d.data(), t.e.data(), lam1, v1, o1);
    for (int threads : {2, 4}) {
      std::vector<double> lam;
      Matrix v;
      Options o = o1;
      o.threads = threads;
      mrrr_solve(n, t.d.data(), t.e.data(), lam, v, o);
      EXPECT_TRUE(same_bits(lam, v, lam1, v1)) << "type " << type << " threads " << threads;
    }
  }
}

// The traced DAG is the real dependency graph: every task, in every phase,
// reaches the final SortEigenvectors task through Trace::edges.
TEST(Mrrr, EveryTaskReachesTheSortThroughEdges) {
  const index_t n = 200;
  auto t = matgen::table3_matrix(3, n, 5);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  opt.grain = 16;
  Stats st;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
  ASSERT_GT(st.clusters, 0);
  const rt::Trace& tr = st.trace;
  std::map<std::uint64_t, std::vector<std::uint64_t>> preds;
  for (const auto& [p, s] : tr.edges) preds[s].push_back(p);
  const auto sort_kind = std::find(tr.kind_names.begin(), tr.kind_names.end(), "SortEigenvectors");
  ASSERT_NE(sort_kind, tr.kind_names.end());
  const int sort_id = static_cast<int>(sort_kind - tr.kind_names.begin());
  std::vector<std::uint64_t> stack;
  for (const auto& ev : tr.events)
    if (ev.kind == sort_id) stack.push_back(ev.task_id);
  ASSERT_EQ(stack.size(), 1u);
  std::set<std::uint64_t> reached(stack.begin(), stack.end());
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    for (std::uint64_t p : preds[id])
      if (reached.insert(p).second) stack.push_back(p);
  }
  std::size_t graph_tasks = 0;
  for (const auto& ev : tr.events) {
    if (ev.is_child()) continue;  // spawn_and_wait children carry no edges
    ++graph_tasks;
    EXPECT_TRUE(reached.count(ev.task_id)) << tr.kind_names[ev.kind] << " task " << ev.task_id;
  }
  // Each eigenvalue passes through one RefineEig task and one Getvec task,
  // and each of those takes at most opt.grain eigenvalues.
  const auto per_phase = static_cast<std::size_t>((n + opt.grain - 1) / opt.grain);
  EXPECT_GT(graph_tasks, 2 * per_phase);
}

// The orthogonality safety net runs once per solve under its own task kind,
// not as one more Getvec task, and the sort depends on it.
TEST(Mrrr, SafetyNetHasItsOwnTaskKind) {
  const index_t n = 200;
  auto t = matgen::table3_matrix(3, n, 5);
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  opt.grain = 16;
  Stats st;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
  const rt::Trace& tr = st.trace;
  const auto kind_id = [&](const char* name) {
    const auto it = std::find(tr.kind_names.begin(), tr.kind_names.end(), name);
    return it == tr.kind_names.end() ? -1 : static_cast<int>(it - tr.kind_names.begin());
  };
  const int safety = kind_id("SafetyNet"), getvec = kind_id("Getvec"),
            sort = kind_id("SortEigenvectors");
  ASSERT_GE(safety, 0);
  ASSERT_GE(getvec, 0);
  std::uint64_t safety_task = 0, sort_task = 0;
  std::size_t safety_tasks = 0, getvec_tasks = 0;
  for (const auto& ev : tr.events) {
    if (ev.kind == safety) {
      ++safety_tasks;
      safety_task = ev.task_id;
    }
    if (ev.kind == getvec) ++getvec_tasks;
    if (ev.kind == sort) sort_task = ev.task_id;
  }
  EXPECT_EQ(safety_tasks, 1u);
  // Every eigenvalue of this spectrum is extracted by some Getvec task.
  EXPECT_GE(getvec_tasks, static_cast<std::size_t>((n + opt.grain - 1) / opt.grain));
  EXPECT_NE(std::find(tr.edges.begin(), tr.edges.end(), std::make_pair(safety_task, sort_task)),
            tr.edges.end());
}

// The input contract: a non-finite entry raises InvalidArgument before any
// task runs, in every precision, instead of aborting inside a task body or
// spinning in a bracket search.
class MrrrNonFiniteInput
    : public ::testing::TestWithParam<std::tuple<Precision, bool /*inf in e*/>> {};

TEST_P(MrrrNonFiniteInput, RaisesInvalidArgument) {
  const auto [precision, inf_in_e] = GetParam();
  const index_t n = 150;
  auto t = matgen::table3_matrix(3, n);
  if (inf_in_e)
    t.e[41] = std::numeric_limits<double>::infinity();
  else
    t.d[41] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> lam;
  Matrix v;
  Options opt;
  opt.threads = 2;
  opt.precision = precision;
  EXPECT_THROW(mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(PrecisionsTimesDefects, MrrrNonFiniteInput,
                         ::testing::Combine(::testing::Values(Precision::F64, Precision::F32),
                                            ::testing::Bool()));

TEST(Mrrr, GrainSweep) {
  auto t = matgen::table3_matrix(4, 100, 2);
  for (index_t grain : {index_t{1}, index_t{8}, index_t{64}, index_t{1000}}) {
    std::vector<double> lam;
    Matrix v;
    Options opt;
    opt.grain = grain;
    mrrr_solve(100, t.d.data(), t.e.data(), lam, v, opt);
    expect_mrrr_quality(t, lam, v);
  }
}

TEST(Mrrr, ApplicationSuite) {
  Rng rng(3);
  auto m = matgen::fem_laplacian_jump(160, 5, rng);
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(m.n(), m.d.data(), m.e.data(), lam, v);
  expect_mrrr_quality(m, lam, v, 1e-12);
}

TEST(Mrrr, InputsNotModified) {
  auto t = matgen::table3_matrix(3, 80, 4);
  auto d0 = t.d, e0 = t.e;
  std::vector<double> lam;
  Matrix v;
  mrrr_solve(80, t.d.data(), t.e.data(), lam, v);
  EXPECT_EQ(t.d, d0);
  EXPECT_EQ(t.e, e0);
}

}  // namespace
}  // namespace dnc::mrrr
