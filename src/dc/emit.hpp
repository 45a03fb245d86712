// The merge-task emitter behind the four D&C entry points of dc/api.hpp.
// Internal header.
//
// One submission sequence covers every execution model: the prologue
// (scaling, Cuppen's boundary adjustment, the zero fill of V), one steqr
// task per leaf, the eight kernels of every merge (Algorithm 1 / Figure 2
// of the paper), the final sort and the unscale. A model only decides how
// those tasks are wired and run:
//
//   Taskflow        per-node handles plus per-panel GATHERV chains, so
//                   merges of independent branches overlap (the paper's
//                   solver); priorities favour deep levels and joins
//   Sequential      the Taskflow sequence run by an inline sink: each body
//                   executes when it is submitted -- no threads, no graph,
//                   no trace
//   LapackModel     one INOUT chain; every kernel but the GEMM runs once
//                   over the whole merge, the GEMM forks panel subtasks
//                   (spawn_and_wait) -- the MKL dstedc baseline
//   ScalapackModel  per-node chains with GATHERV fan-out, one Gu-Eisenstat
//                   product per merge, a join before the GEMM, levels
//                   emitted deepest first with a barrier after each -- the
//                   pdstedc baseline
//
// The panel split never changes the arithmetic of a kernel, with one
// exception: the Gu-Eisenstat partial products (ComputeLocalW) are formed
// per panel under Sequential/Taskflow and once per merge under the LAPACK
// and ScaLAPACK models. Results are bit-identical within each pair and
// differ by rounding across the pairs.
#pragma once

#include <memory>
#include <vector>

#include "dc/merge.hpp"
#include "dc/options.hpp"
#include "dc/partition.hpp"
#include "runtime/engine.hpp"

namespace dnc::dc::detail {

enum class ExecModel { Sequential, Taskflow, LapackModel, ScalapackModel };

template <typename Real>
using Contexts = std::vector<std::unique_ptr<MergeContextT<Real>>>;

/// Merge contexts for every internal node of the plan, indexed like
/// plan.nodes (leaves get nullptr).
template <typename Real>
Contexts<Real> make_contexts(const Plan& plan, const Real* e, index_t nb) {
  Contexts<Real> ctxs(plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i)
    if (!plan.nodes[i].leaf())
      ctxs[i] = std::make_unique<MergeContextT<Real>>(plan.nodes[i], e, nb);
  return ctxs;
}

/// Emits the tasks of one solve under one execution model. All arguments
/// must outlive the emitter; the runtime-backed models start opt.threads
/// workers at construction.
template <typename Real>
class Emitter {
 public:
  Emitter(ExecModel model, const Options& opt, const Plan& plan, Contexts<Real>& ctxs, Real* d,
          Real* e, MatrixT<Real>& v, WorkspaceT<Real>& ws, index_t* perm);
  ~Emitter();
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  /// Emits the whole solve and waits for it: on return d holds the
  /// eigenvalues in ascending order and v the eigenvectors.
  void solve();
  /// Emits the merge of plan.nodes[i]; its sons must be solved, with their
  /// ascending orders back to back in perm.
  void merge(std::size_t i);

  /// The task graph and runtime (nullptr under the Sequential model).
  const rt::TaskGraph* graph() const { return graph_.get(); }
  const rt::Runtime* runtime() const { return runtime_.get(); }

 private:
  template <typename F>
  void task(int kind, F&& body, std::vector<rt::TaskDep> deps, const TreeNode* nd = nullptr,
            bool join = false, long panel = -1);
  std::vector<rt::TaskDep> panel_deps(std::size_t i, index_t p, int slots);
  void leaf(std::size_t i);
  void sort_and_unscale();

  ExecModel model_;
  const Options& opt_;
  const Plan& plan_;
  Contexts<Real>& ctxs_;
  Real* d_;
  Real* e_;
  MatrixT<Real>& v_;
  WorkspaceT<Real>& ws_;
  index_t* perm_;
  index_t n_;
  Real orgnrm_ = 0;
  std::vector<Real> dsorted_;

  // Handles: the solve-wide flow (prologue, LAPACK chain, level barriers),
  // one per tree node, and for the panelled models one or two per merge
  // panel plus one per sort panel.
  rt::Handle hflow_;
  std::vector<rt::Handle> hnode_;
  std::vector<std::vector<rt::Handle>> hpanel_, hpanel2_;
  std::vector<rt::Handle> hsort_;

  // Declared last: the runtime stops before anything its tasks touch.
  std::unique_ptr<rt::TaskGraph> graph_;
  std::unique_ptr<rt::Runtime> runtime_;
};

}  // namespace dnc::dc::detail
