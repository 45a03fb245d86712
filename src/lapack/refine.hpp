// Mixed-precision iterative refinement of tridiagonal eigenpairs.
//
// No solve path calls this (Precision::F32RefineF64 is an alias of F64).
// The last caller is perfbench's lapack.refine_* probe; this kernel and
// TridiagLUBatch go with it.
//
// Given approximate eigenpairs (widened fp32 ones, say), refine_eigenpairs
// takes the ORIGINAL fp64 tridiagonal: every
// eigenpair whose fp64 residual ||T v - lambda v||_inf exceeds an
// fp64-grade tolerance (30 eps64 ||T||_1) is polished by Rayleigh-quotient
// iteration, at most 5 steps -- solve (T - rho I) w = v with a
// partially-pivoted tridiagonal LU (the dstein kernel,
// lapack/tridiag_lu.hpp), renormalise, update rho = w^T T w. Each iteration
// roughly squares the eigenvector error, so the fp32 starting points
// (~1e-7) reach fp64-grade residuals in 1-2 solves. The columns are
// independent, so this sweep runs as column-block tasks when given several
// workers, and within a task up to eight columns iterate together, one lane
// each of a batched LU (TridiagLUBatch): one shift's LU waits on a division
// every row, eight interleaved ones overlap. The sweep also records what
// the overlap scan needs of each final pair: its residual 2-norm
// ||T v_k - lambda_k v_k||_2, and whether it stalled above the residual
// target. Its last step has already formed T v for that pair.
//
// The returned basis is fp64-orthogonal too, or the report says it is not.
// After the sweep, two block-parallel phases run on the same workers, over
// blocks of 64 columns:
//   (a) overlap scan: one GEMM per block forms the banded Gram block
//       V[:, q0:k1]' V[:, k0:k1]; within each run of near-equal eigenvalues
//       only the pairs that the residual-over-gap bound
//       |v_q'v_k| <= (||r_q|| + ||r_k||) / (lam_k - lam_q) cannot clear are
//       tested against fp64 round-off. The scan only certifies: a run with
//       a stalled column or a failed pair counts as one broken cluster, and
//       when any is broken the sorted RQI pairs are returned as they are,
//       without (b), and the caller must not trust them;
//   (b) polish: each column is projected once off its window of close
//       predecessors, v_k -= sum_q G_qk v_q, reusing (a)'s Gram blocks. One
//       pass suffices because every windowed |G_qk| is then at most
//       64 n eps, so what it leaves is that squared. A block reads its
//       window and writes its own columns, so the blocks run in
//       1 + ceil(window / 64) colour phases: no block is read while it is
//       being written, and no n x nvec copy of V is needed.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"

namespace dnc::lapack {

struct RefineReport {
  index_t checked = 0;           ///< columns whose residual was evaluated
  index_t refined = 0;           ///< columns that needed at least one RQI step
  std::int64_t iterations = 0;   ///< total RQI solves across all columns
  std::int64_t overlap_dots = 0; ///< pairwise dots computed by the overlap scan
  index_t broken_clusters = 0;   ///< clusters with a stalled column or a failed overlap test
  double max_resid_before = 0;   ///< worst ||T v - lambda v||_inf entering
  double max_resid_after = 0;    ///< worst residual after refinement
};

/// Refines nvec eigenpairs (lam[j], v[:,j]) of the fp64 tridiagonal (d, e)
/// in place. Eigenvalues are updated to Rayleigh quotients and the
/// (lam, v-columns) pairs re-sorted ascending on return (refined values can
/// cross their unrefined neighbours). v has leading dimension ldv >= n.
/// Only a report with broken_clusters == 0 certifies the pairs as an
/// fp64-accurate, fp64-orthogonal basis.
/// `threads` > 1 runs the RQI sweep and the two phases above as tasks on
/// one runtime with that many workers; the result is bit-identical for
/// every worker count.
RefineReport refine_eigenpairs(index_t n, const double* d, const double* e, double* lam,
                               double* v, index_t ldv, index_t nvec, int threads = 1);

}  // namespace dnc::lapack
