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

/// Global workspace sized once for the whole solve. Independent merges use
/// disjoint regions addressed by their node offset, so concurrent merges
/// never share memory (the paper's PLASMA implementation does the same with
/// its user-provided workspace).
///
/// The default is one n x n matrix, as in LAPACK's dstedc: the secular
/// matrices Delta and S of a merge live in that merge's own block of the
/// eigenvector matrix once PermuteV has copied the block out (dlaed3 builds
/// them in Q the same way). Options::extra_workspace adds xwork, a second
/// n x n matrix that holds Delta and S instead, so LAED4 need not wait for
/// PermuteV.
template <typename Real>
struct WorkspaceT {
  MatrixT<Real> qwork;  ///< n x n: compressed copies (w1 / w2 / deflated columns)
  MatrixT<Real> xwork;  ///< n x n Delta/S with extra_workspace, else empty

  WorkspaceT(index_t n, bool extra_workspace)
      : qwork(n, n), xwork(extra_workspace ? n : 0, extra_workspace ? n : 0) {}
};

using Workspace = WorkspaceT<double>;

/// Per-merge dynamic state. Sized for the worst case (no deflation) at
/// construction so the task DAG can be built before deflation counts are
/// known -- the paper's "matrix independent DAG" property. It owns only
/// O(m) vectors and the m x npanels partial products; the views below
/// address the node's m x m region of v and of the solve's WorkspaceT.
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

  // --- views of this node's region of v and of the workspace ---
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
  /// The merge's secular matrix, k x k in the top-left corner of the
  /// node's m x m region: LAED4 writes Delta column j, ComputeVect then
  /// overwrites it with S column j (rows in grouped order). The region is
  /// the node's block of v itself unless the workspace carries xwork, so
  /// without xwork LAED4 may start only after every PermuteV panel of the
  /// merge has read the block.
  MatrixViewT<Real> secular(WorkspaceT<Real>& ws, MatrixT<Real>& v) const {
    return ws.xwork.rows() > 0 ? qblock(ws.xwork) : qblock(v);
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
