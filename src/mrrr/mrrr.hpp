// MRRR (Multiple Relatively Robust Representations) symmetric tridiagonal
// eigensolver, in the task-parallel style of MR3-SMP (Petschow &
// Bientinesi) -- the comparator of the paper's Figures 8-10.
//
// Pipeline: split into unreduced blocks -> per block, a root
// LDL^T representation just outside the spectrum -> all root eigenvalues
// in O(n^2) by square-root-free PWK QL (sterf, a dsterf port; MR3-SMP
// uses dqds), bisection only if QL fails, then grain-sized tasks refine
// them against the root (refine_ldl: verified Sturm-count bracket,
// bisection to full relative accuracy) ->
// representation tree: runs of consecutive singletons get their
// twisted-factorization eigenvectors in grain-sized Getvec tasks,
// clusters get a shifted child representation whose members are refined in
// grain-sized child tasks, and recurse -> one final task sorts the
// eigenpairs, moving only misplaced columns. Each refinement task makes
// one batched refine_ldl call for its grain: the eigenvalues bisect side
// by side, one per lane of the SIMD Sturm-count kernel (up to 16 fp64
// shifts per pass under AVX-512), with exactly the counts, and so exactly
// the eigenvalues, of one-at-a-time bisection. Each Getvec task likewise
// factors its grain in lane-parallel twisted_ldl passes, with exactly the
// vectors of one task per eigenvalue. Each phase's tasks read the handle
// its producer wrote, so the traced DAG is the real dependency graph.
// Independent (sub)tasks are executed by the same task runtime as the D&C
// solver, so traces and simulated parallel makespans are directly
// comparable.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "matgen/tridiag.hpp"
#include "obs/report.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace.hpp"

namespace dnc::mrrr {

struct Options {
  int threads = 4;
  /// Working precision of the solve (DNC_PREC overrides the default).
  /// F32 runs the whole representation tree in fp32; F32RefineF64 is an
  /// alias of F64 (common/precision.hpp).
  Precision precision = default_precision();
  /// Eigenvalues per RefineEig task, per cluster-refinement child task
  /// and per Getvec task, which takes a run of consecutive singletons of
  /// one representation (granularity knob, MR3-SMP's task size).
  index_t grain = 32;
};

struct Stats {
  index_t n = 0;
  index_t blocks = 0;          ///< unreduced blocks
  index_t clusters = 0;        ///< cluster nodes in the representation tree
  int depth_used = 0;          ///< deepest representation level reached
  double seconds = 0.0;
  rt::Trace trace;
  std::vector<rt::SimulationResult> simulated;
  /// Observability report (no merge records -- MRRR has no merge tree, but
  /// the sturm/bisect-ldl counters and scheduler metrics apply). Written
  /// into the $DNC_TRACE file and appended to the $DNC_HISTORY archive when
  /// those are set.
  obs::SolveReport report;
};

/// Computes all eigenpairs of the tridiagonal (d, e): lam ascending, v
/// (n x n) the eigenvectors. Inputs are not modified. Every finite fp64
/// input is solved at every precision: the front door
/// (lapack/front_door.hpp) scales T by a power of two into the working
/// precision's safe range (dstemr's [rmin, rmax]) and the eigenvalues back.
/// Only a non-finite entry of d or e throws InvalidArgument, before any
/// task runs.
void mrrr_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
                Matrix& v, const Options& opt = {}, Stats* stats = nullptr,
                const std::vector<int>& simulate_workers = {});

}  // namespace dnc::mrrr
