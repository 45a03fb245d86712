// One D&C merge step: the merge context, the shared workspace layout, and
// the deflation / ordering steps around the panel kernels. The emitter
// (dc/emit.hpp) submits them as tasks under every execution model.
// Templated on the working
// precision Real: an fp32 solve allocates fp32 workspaces (half the memory
// footprint and traffic of the fp64 solve).
#pragma once

#include <memory>
#include <vector>

#include "dc/deflation.hpp"
#include "dc/options.hpp"
#include "dc/partition.hpp"
#include "dc/secular.hpp"

namespace dnc::dc {

/// Global workspaces sized once for the whole solve. Independent merges use
/// disjoint regions addressed by their node offset, so concurrent merges
/// never share memory (the paper's PLASMA implementation does the same with
/// its user-provided workspace).
template <typename Real>
struct WorkspaceT {
  MatrixT<Real> qwork;  ///< n x n: compressed copies (w1 / w2 / deflated columns)
  MatrixT<Real> xwork;  ///< 2n x n: delta matrix (top) and S matrix (bottom)

  explicit WorkspaceT(index_t n) : qwork(n, n), xwork(2 * n, n) {}
};

using Workspace = WorkspaceT<double>;

/// Per-merge dynamic state. Sized for the worst case (no deflation) at
/// construction so the task DAG can be built before deflation counts are
/// known -- the paper's "matrix independent DAG" property.
template <typename Real>
struct MergeContextT {
  TreeNode node;
  /// Location of the coupling element e[i0 + n1 - 1]. Read at *execution*
  /// time, not submission time: the emitter builds contexts before the
  /// ScaleT task has rescaled e.
  const Real* beta_ptr = nullptr;
  index_t npanels = 0;
  DeflationResultT<Real> defl;  ///< filled by run_deflation
  /// Trace-clock stamp (common/timer.hpp now_seconds) taken when
  /// run_deflation returned; feeds the Perfetto deflation counter track.
  double t_deflate_end = 0.0;
  std::vector<Real> z;
  std::vector<Real> zhat;
  MatrixT<Real> wparts;         ///< m x npanels partial Gu-Eisenstat products

  MergeContextT(const TreeNode& nd, const Real* e_global, index_t nb)
      : node(nd), beta_ptr(e_global + nd.i0 + nd.n1 - 1), npanels((nd.m + nb - 1) / nb),
        z(nd.m), zhat(nd.m), wparts(nd.m, npanels) {}

  // --- workspace views for this node's region ---
  MatrixViewT<Real> qblock(MatrixT<Real>& q) const {
    return q.block(node.i0, node.i0, node.m, node.m);
  }
  MatrixViewT<Real> w1(WorkspaceT<Real>& ws) const {
    return ws.qwork.block(node.i0, node.i0, node.n1, node.m);
  }
  MatrixViewT<Real> w2(WorkspaceT<Real>& ws) const {
    return ws.qwork.block(node.i0 + node.n1, node.i0, node.m - node.n1, node.m);
  }
  MatrixViewT<Real> wdefl(WorkspaceT<Real>& ws) const {
    // Full-height columns [k, m) of the node's qwork region; views are
    // created per call AFTER deflation so k is known.
    return ws.qwork.block(node.i0, node.i0 + defl.k, node.m, node.m - defl.k);
  }
  MatrixViewT<Real> deltam(WorkspaceT<Real>& ws) const {
    return ws.xwork.block(2 * node.i0, node.i0, node.m, node.m);
  }
  MatrixViewT<Real> smat(WorkspaceT<Real>& ws) const {
    return ws.xwork.block(2 * node.i0 + node.m, node.i0, node.m, node.m);
  }
};

using MergeContext = MergeContextT<double>;

/// Builds the scaled rank-one vector z from the sons' boundary rows and
/// runs deflation. d is the node's physical eigenvalue array (size m,
/// global offset already applied by the caller); perm holds the sons'
/// ascending orders back to back. On return d[k..m) holds the deflated
/// eigenvalues (grouped order).
template <typename Real>
void run_deflation(MergeContextT<Real>& ctx, MatrixViewT<Real> qblock, Real* d,
                   const index_t* perm);

/// Finishes the eigenvalue bookkeeping once all secular roots are known:
/// merges roots and deflated values into the father's ascending perm.
template <typename Real>
void finalize_order(const MergeContextT<Real>& ctx, const Real* d, index_t* perm);

}  // namespace dnc::dc
