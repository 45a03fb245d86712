// Unit tests of the panel kernels on a hand-built merge, run through the
// emitter's inline (Sequential) path: panel splitting must be exactly
// equivalent to whole-range execution.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "blas/aux.hpp"
#include "common/rng.hpp"
#include "dc/emit.hpp"
#include "lapack/steqr.hpp"
#include "matgen/tridiag.hpp"
#include "verify/metrics.hpp"

namespace dnc::dc {
namespace {

// Builds a real merge situation by solving the two halves of a tridiagonal
// with steqr, then returns everything needed to run merge kernels.
struct Scenario {
  matgen::Tridiag t;
  Matrix q;
  std::vector<double> dvals;
  std::vector<index_t> perm;
  index_t n1;
  double beta;
};

Scenario make_scenario(index_t n, int type) {
  Scenario s;
  s.t = matgen::table3_matrix(type, n, 5);
  s.n1 = n / 2;
  s.beta = s.t.e[s.n1 - 1];
  s.q.resize(n, n);
  s.q.fill(0.0);
  s.dvals = s.t.d;
  std::vector<double> e = s.t.e;
  // Cuppen boundary modification.
  s.dvals[s.n1 - 1] -= std::fabs(s.beta);
  s.dvals[s.n1] -= std::fabs(s.beta);
  lapack::steqr(lapack::CompZ::Identity, s.n1, s.dvals.data(), e.data(), s.q.data(), n);
  lapack::steqr(lapack::CompZ::Identity, n - s.n1, s.dvals.data() + s.n1, e.data() + s.n1,
                s.q.data() + s.n1 + s.n1 * n, n);
  s.perm.resize(n);
  for (index_t i = 0; i < s.n1; ++i) s.perm[i] = i;
  for (index_t i = s.n1; i < n; ++i) s.perm[i] = i - s.n1;
  return s;
}

// Merges the scenario's two halves through the emitter's inline path, with
// nb-wide panels. Returns the merge context (deflation, z-hat).
std::unique_ptr<MergeContext> run_merge(Scenario& s, index_t nb) {
  const index_t n = s.t.n();
  const Plan plan = build_plan(n, n - s.n1);  // the root and its two halves
  EXPECT_EQ(plan.nodes[plan.root].n1, s.n1);
  std::vector<double> e = s.t.e;
  auto ctxs = detail::make_contexts(plan, e.data(), nb);
  Workspace ws(n);
  Options opt;
  opt.nb = nb;
  detail::Emitter<double> emitter(detail::ExecModel::Sequential, opt, plan, ctxs,
                                  s.dvals.data(), e.data(), s.q, ws, s.perm.data());
  emitter.merge(plan.root);
  return std::move(ctxs[plan.root]);
}

double merge_residual(const Scenario& s, const std::vector<double>& lam, const Matrix& q) {
  double worst = 0.0;
  const index_t n = s.t.n();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double r = s.t.d[i] * q(i, j);
      if (i > 0) r += s.t.e[i - 1] * q(i - 1, j);
      if (i + 1 < n) r += s.t.e[i] * q(i + 1, j);
      r -= lam[j] * q(i, j);
      worst = std::max(worst, std::fabs(r));
    }
  }
  return worst;
}

TEST(MergeKernels, SingleMergeSolvesProblem) {
  const index_t n = 96;
  Scenario s = make_scenario(n, 6);
  run_merge(s, 32);
  // Physically sort by perm for the residual check.
  std::vector<double> lam(n);
  Matrix sorted(n, n);
  for (index_t r = 0; r < n; ++r) {
    lam[r] = s.dvals[s.perm[r]];
    for (index_t i = 0; i < n; ++i) sorted(i, r) = s.q(i, s.perm[r]);
  }
  EXPECT_LT(merge_residual(s, lam, sorted), 1e-13);
  EXPECT_LT(verify::orthogonality(sorted), 1e-14);
}

TEST(MergeKernels, PanelWidthEquivalence) {
  const index_t n = 90;
  std::vector<std::vector<double>> results;
  for (index_t nb : {index_t{90}, index_t{13}, index_t{1}}) {
    Scenario s = make_scenario(n, 5);
    run_merge(s, nb);
    results.push_back(s.dvals);
  }
  // Identical results regardless of panel width (the panel split changes
  // only the order of independent work, not the arithmetic).
  for (std::size_t i = 1; i < results.size(); ++i)
    for (index_t j = 0; j < n; ++j) EXPECT_EQ(results[0][j], results[i][j]) << "nb case " << i;
}

TEST(MergeKernels, FinalizeOrderSortsEverything) {
  const index_t n = 64;
  Scenario s = make_scenario(n, 6);
  run_merge(s, 16);
  for (index_t r = 1; r < n; ++r)
    EXPECT_LE(s.dvals[s.perm[r - 1]], s.dvals[s.perm[r]]);
}

TEST(MergeKernels, ZhatMatchesOriginalZWhenExact) {
  // For a well-separated system the stabilised z-hat must reproduce
  // sqrt(rho) * |w| closely (the Gu-Eisenstat correction is tiny).
  const index_t n = 48;
  Scenario s = make_scenario(n, 13);  // Legendre: no deflation
  const auto ctx = run_merge(s, 16);
  const auto& defl = ctx->defl;
  if (defl.k == 0) GTEST_SKIP();
  const double sqrho = std::sqrt(defl.rho);
  for (index_t i = 0; i < defl.k; ++i) {
    EXPECT_NEAR(std::fabs(ctx->zhat[i]), sqrho * std::fabs(defl.w[i]),
                1e-8 * sqrho * std::fabs(defl.w[i]) + 1e-18)
        << "component " << i;
  }
}

}  // namespace
}  // namespace dnc::dc
