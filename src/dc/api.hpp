// Public entry points of the divide & conquer symmetric tridiagonal
// eigensolver library.
//
// The four entry points are four execution models of one merge-task
// emitter (dc/emit.hpp): each submits the same prologue, leaf solves,
// merge kernels (deflation, secular equation, Gu-Eisenstat stabilization,
// compressed update GEMMs), sort and unscale, and differs only in how the
// tasks are wired and run:
//
//   stedc_sequential      the task-flow sequence run inline, each body at
//                         submission: no threads, no graph, no trace
//   stedc_taskflow        the paper's contribution: sequential task flow
//                         over a QUARK-like runtime with GATHERV panel
//                         tasks, merges of independent branches overlap
//   stedc_lapack_model    the MKL-LAPACK baseline model: one sequential
//                         flow whose only parallelism is fork/join
//                         multithreaded GEMM
//   stedc_scalapack_model the ScaLAPACK baseline model: subproblems solved
//                         in parallel, fork/join merge parallelism,
//                         barriers between tree levels
//
// sequential and taskflow return bit-identical results, as do the LAPACK
// and ScaLAPACK models; the two pairs differ in rounding only (the
// Gu-Eisenstat products are formed per panel vs once per merge).
//
// On entry d[0..n) / e[0..n-1) describe the tridiagonal matrix. Every
// finite fp64 input is solved at every precision: the front door
// (lapack/front_door.hpp) scales T into the working precision's safe range
// before it narrows or solves. Only a non-finite entry throws
// InvalidArgument, before any work. On return d holds the eigenvalues in
// ascending order and v the corresponding orthonormal eigenvectors (v is
// resized to n x n). e is destroyed.
//
// Workspace: a solve's scratch (workspace_bytes) is the n x n array of
// LAPACK's dstedc plus the UpdateVect S-panel copies. The library keeps one
// such workspace per working precision between solves and reuses it, so
// repeated solves do not map and fault their scratch in again; it only
// grows. A solve that finds it in use by a concurrent solve of the same
// precision takes a transient workspace of its own (F32RefineF64, an alias
// of F64, uses the fp64 one). F32 also keeps its n x n fp32 eigenvector
// output between solves (lapack/front_door.hpp). release_workspace()
// returns all of this kept memory to the system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dc/options.hpp"
#include "obs/report.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace.hpp"

namespace dnc::dc {

/// Execution statistics reported by every driver.
struct SolveStats {
  index_t n = 0;
  index_t merges = 0;
  index_t leaves = 0;
  double deflation_ratio = 0.0;  ///< sum(m - k) / sum(m) over all merges
  index_t root_k = 0;            ///< non-deflated count of the final merge
  double seconds = 0.0;          ///< wall-clock of the solve

  /// Observability report: per-merge deflation records, algorithmic counter
  /// deltas (laed4/sturm/gemm), scheduler metrics for the runtime-backed
  /// drivers. Written into the $DNC_TRACE file and appended to the
  /// $DNC_HISTORY archive when those are set (which works even when stats
  /// itself is null).
  obs::SolveReport report;

  // Filled by the runtime-backed drivers only (not stedc_sequential):
  rt::Trace trace;                             ///< per-task execution trace
  std::vector<rt::SimulationResult> simulated;  ///< per requested worker count
  std::string dag_dot;                          ///< DOT DAG if opt.export_dag
};

/// Bytes of scratch a D&C solve of order n under `opt` uses, at the
/// working precision opt.precision: the n x n workspace plus one
/// n x min(opt.nb, n) S-panel slot per thread (opt.threads;
/// stedc_sequential runs with one). 0 for n <= 2, which need none.
std::uint64_t workspace_bytes(index_t n, const Options& opt);

/// Frees the workspaces and the fp32 output the library keeps between
/// solves. Waits for a solve that is using one; the next solve allocates
/// afresh.
void release_workspace();

void stedc_sequential(index_t n, double* d, double* e, Matrix& v, const Options& opt = {},
                      SolveStats* stats = nullptr);

/// `simulate_workers`: optional list of virtual core counts to replay the
/// recorded trace on (obs::replay_trace); results land in
/// stats->simulated in the same order.
void stedc_taskflow(index_t n, double* d, double* e, Matrix& v, const Options& opt = {},
                    SolveStats* stats = nullptr,
                    const std::vector<int>& simulate_workers = {});

void stedc_lapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt = {},
                        SolveStats* stats = nullptr,
                        const std::vector<int>& simulate_workers = {});

void stedc_scalapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt = {},
                           SolveStats* stats = nullptr,
                           const std::vector<int>& simulate_workers = {});

}  // namespace dnc::dc
