#include "dc/merge.hpp"

#include <cmath>

#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "lapack/lamrg.hpp"

namespace dnc::dc {

template <typename Real>
void run_deflation(MergeContextT<Real>& ctx, MatrixViewT<Real> qblock, Real* d,
                   const index_t* perm) {
  const index_t n1 = ctx.node.n1;
  const index_t m = ctx.node.m;
  const index_t n2 = m - n1;
  // z = (last row of V1, first row of V2) / sqrt(2); the second part's sign
  // flips when the coupling is negative so that the rank-one weight can be
  // taken positive (see dlaed2 and DESIGN.md).
  const Real beta = *ctx.beta_ptr;
  const Real scale = std::sqrt(Real(0.5));
  for (index_t j = 0; j < n1; ++j) ctx.z[j] = scale * qblock(n1 - 1, j);
  const Real sgn = beta < Real(0) ? -scale : scale;
  for (index_t j = n1; j < m; ++j) ctx.z[j] = sgn * qblock(n1, j);
  const Real rho = std::fabs(Real(2) * beta);

  ctx.defl = deflate(n1, n2, d, ctx.z.data(), rho, qblock, perm, perm + n1);

  // Deflated eigenvalues take their final physical slots right away; the
  // secular roots fill d[0..k) as the LAED4 panels complete.
  for (index_t t = 0; t < m - ctx.defl.k; ++t) d[ctx.defl.k + t] = ctx.defl.d_defl[t];

  // Partial-product workspace: panels multiply into their own column.
  ctx.wparts.fill(Real(1));

  ctx.t_deflate_end = now_seconds();
}

template <typename Real>
void finalize_order(const MergeContextT<Real>& ctx, const Real* d, index_t* perm) {
  // d[0..k) ascending (secular roots interlace the poles) and d[k..m)
  // ascending (deflation kept them sorted): a single lamrg pass yields the
  // father's ascending order.
  lapack::lamrg(ctx.defl.k, ctx.node.m - ctx.defl.k, d, 1, 1, perm);
}

#define DNC_INSTANTIATE_MERGE(Real)                                                       \
  template void run_deflation<Real>(MergeContextT<Real>&, MatrixViewT<Real>, Real*,       \
                                    const index_t*);                                      \
  template void finalize_order<Real>(const MergeContextT<Real>&, const Real*, index_t*)

DNC_INSTANTIATE_MERGE(double);
DNC_INSTANTIATE_MERGE(float);

#undef DNC_INSTANTIATE_MERGE

}  // namespace dnc::dc
