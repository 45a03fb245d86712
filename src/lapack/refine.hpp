// Mixed-precision iterative refinement of tridiagonal eigenpairs.
//
// The DNC_PREC=f32refine driver runs the whole divide & conquer solve in
// fp32 (the fast path: 8-lane GEMMs, half the memory traffic) and then
// calls refine_eigenpairs with the ORIGINAL fp64 tridiagonal: every
// eigenpair whose fp64 residual ||T v - lambda v||_inf exceeds an
// fp64-grade tolerance is polished by Rayleigh-quotient iteration -- solve
// (T - rho I) w = v with a partially-pivoted tridiagonal LU (the dstein
// kernel), renormalise, update rho = w^T T w. Each iteration roughly
// squares the eigenvector error, so the fp32 starting points (~1e-7)
// reach fp64-grade residuals in 1-2 solves. The columns are independent,
// so this sweep runs as column-block tasks when given several workers.
//
// The returned basis is fp64-orthogonal too. A cluster safety net scans
// each run of near-equal eigenvalues for stalled residuals and for pairwise
// overlap above fp64 round-off -- pruned by the residual-over-gap bound
// |v_q'v_k| <= (||r_q|| + ||r_k||) / (lam_k - lam_q), so only pairs that
// bound cannot clear are dotted -- and re-extracts a broken run by
// bisection-shifted inverse iteration; a windowed Gram-Schmidt polish
// then removes the residual-sized cross-talk between close neighbours.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"

namespace dnc::lapack {

struct RefineOptions {
  /// Per-column residual target, as a multiple of eps64 * ||T||_1.
  double tol_factor = 30.0;
  /// Rayleigh-quotient iterations per eigenpair before giving up.
  int max_iters = 5;
};

struct RefineReport {
  index_t checked = 0;           ///< columns whose residual was evaluated
  index_t refined = 0;           ///< columns that needed at least one RQI step
  std::int64_t iterations = 0;   ///< total RQI solves across all columns
  std::int64_t overlap_dots = 0; ///< pairwise dots computed by the cluster safety-net scan
  double max_resid_before = 0;   ///< worst ||T v - lambda v||_inf entering
  double max_resid_after = 0;    ///< worst residual after refinement
};

/// Refines nvec eigenpairs (lam[j], v[:,j]) of the fp64 tridiagonal (d, e)
/// in place. Eigenvalues are updated to Rayleigh quotients and the
/// (lam, v-columns) pairs re-sorted ascending on return (refined values can
/// cross their unrefined neighbours). v has leading dimension ldv >= n.
/// `threads` > 1 runs the per-column RQI sweep on that many workers; the
/// result is bit-identical for every worker count.
RefineReport refine_eigenpairs(index_t n, const double* d, const double* e, double* lam,
                               double* v, index_t ldv, index_t nvec,
                               const RefineOptions& opts = {}, int threads = 1);

}  // namespace dnc::lapack
