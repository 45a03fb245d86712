// One D&C merge step: the merge context, its views of the shared
// workspace, and the deflation / ordering steps around the panel kernels.
// The emitter (dc/emit.hpp) submits them as tasks under every execution
// model. Templated on the working precision Real: an fp32 solve allocates
// an fp32 workspace (half the memory footprint and traffic of the fp64
// solve).
#pragma once

#include <vector>

#include "dc/deflation.hpp"
#include "dc/partition.hpp"
#include "dc/secular.hpp"

namespace dnc::dc {

/// Per-merge dynamic state. Sized for the worst case (no deflation) at
/// construction so the task DAG can be built before deflation counts are
/// known -- the paper's "matrix independent DAG" property. It owns only
/// O(m) vectors and the m x npanels partial products; the views below
/// address the node's m x m region of v and of qwork.
///
/// qwork is the solve's one n x n workspace, as in LAPACK's dstedc, sized
/// once for the whole solve (detail::WorkspaceT, dc/emit.hpp). Independent
/// merges use disjoint regions addressed by their node offset, so
/// concurrent merges never share memory (the paper's PLASMA implementation
/// does the same with its user-provided workspace).
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

  // --- views of this node's region of v and of qwork ---
  MatrixViewT<Real> qblock(MatrixT<Real>& q) const {
    return q.block(node.i0, node.i0, node.m, node.m);
  }
  MatrixViewT<Real> w1(const MatrixViewT<Real>& qwork) const {
    return qwork.block(node.i0, node.i0, node.n1, node.m);
  }
  MatrixViewT<Real> w2(const MatrixViewT<Real>& qwork) const {
    return qwork.block(node.i0 + node.n1, node.i0, node.m - node.n1, node.m);
  }
  MatrixViewT<Real> wdefl(const MatrixViewT<Real>& qwork) const {
    // Full-height columns [k, m) of the node's qwork region; views are
    // created per call AFTER deflation so k is known.
    return qwork.block(node.i0, node.i0 + defl.k, node.m, node.m - defl.k);
  }
  /// The merge's secular matrix, k x k in the top-left corner of the
  /// node's block of v (the dlaed3 layout): LAED4 writes Delta column j,
  /// ComputeVect then overwrites it with S column j (rows in grouped
  /// order). LAED4 may therefore start only after every PermuteV panel of
  /// the merge has read the block.
  MatrixViewT<Real> secular(MatrixT<Real>& v) const { return qblock(v); }
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
