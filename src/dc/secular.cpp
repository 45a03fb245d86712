#include "dc/secular.hpp"

#include <algorithm>
#include <cmath>

#include "blas/aux.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "lapack/laed4.hpp"

namespace dnc::dc {

template <typename Real>
void permute_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& qblock,
                   MatrixViewT<Real> w1, MatrixViewT<Real> w2, MatrixViewT<Real> wdefl,
                   index_t g0, index_t g1) {
  const index_t m = defl.m;
  const index_t n1 = defl.n1;
  const index_t n2 = m - n1;
  const index_t k12 = defl.k12();
  const index_t c1 = defl.ctot[0];
  g1 = std::min(g1, m);
  for (index_t g = g0; g < g1; ++g) {
    const index_t j = defl.indx[g];
    if (g < k12) {
      // Types 1 and 2 contribute their top n1 rows.
      blas::copy(n1, qblock.col(j), w1.col(g));
    }
    if (g >= c1 && g < defl.k) {
      // Types 2 and 3 contribute their bottom n2 rows.
      blas::copy(n2, qblock.col(j) + n1, w2.col(g - c1));
    }
    if (g >= defl.k) {
      // Deflated columns are stashed whole (rotations may have given them
      // support in both halves).
      blas::copy(m, qblock.col(j), wdefl.col(g - defl.k));
    }
  }
}

template <typename Real>
void secular_solve_panel(const DeflationResultT<Real>& defl, index_t j0, index_t j1,
                         Real* lambda, MatrixViewT<Real> deltam) {
  j1 = std::min(j1, defl.k);
  for (index_t j = j0; j < j1; ++j) {
    const auto r = lapack::laed4(defl.k, j, defl.dlamda.data(), defl.w.data(), defl.rho,
                                 deltam.col(j));
    lambda[j] = r.lambda;
  }
}

template <typename Real>
void zhat_local_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& deltam,
                      index_t j0, index_t j1, Real* wpart) {
  const index_t k = defl.k;
  j1 = std::min(j1, k);
  for (index_t j = j0; j < j1; ++j) {
    const Real* dcol = deltam.col(j);
    const Real dj = defl.dlamda[j];
    for (index_t i = 0; i < k; ++i) {
      if (i == j)
        wpart[i] *= dcol[i];
      else
        wpart[i] *= dcol[i] / (defl.dlamda[i] - dj);
    }
  }
}

template <typename Real>
void zhat_reduce(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& wparts,
                 index_t nparts, Real* zhat) {
  const index_t k = defl.k;
  for (index_t i = 0; i < k; ++i) {
    Real prod = 1;
    for (index_t p = 0; p < nparts; ++p) prod *= wparts(i, p);
    // prod = (d_i - lambda_i) * prod_{j != i} (d_i - lambda_j)/(d_i - d_j)
    // which equals -zhat_i^2 (Gu-Eisenstat); rounding can flip a tiny
    // value's sign, so clamp through |.|.
    zhat[i] = std::copysign(std::sqrt(std::fabs(prod)), defl.w[i]);
  }
}

template <typename Real>
void secular_vectors_panel(const DeflationResultT<Real>& defl, MatrixViewT<Real> secular,
                           const Real* zhat, index_t j0, index_t j1) {
  const index_t k = defl.k;
  j1 = std::min(j1, k);
  std::vector<Real> s(k);
  for (index_t j = j0; j < j1; ++j) {
    const Real* dcol = secular.col(j);
    for (index_t i = 0; i < k; ++i) s[i] = zhat[i] / dcol[i];
    const Real nrm = blas::nrm2(k, s.data());
    // S column j replaces delta column j, which nothing reads afterwards.
    Real* out = secular.col(j);
    // Rows of the secular eigenvector matrix are stored in grouped order so
    // the update GEMMs can run on the compressed column blocks directly.
    for (index_t g = 0; g < k; ++g) out[g] = s[defl.rank_of[g]] / nrm;
  }
}

template <typename Real>
void update_vectors_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& w1,
                          const MatrixViewT<Real>& w2, const MatrixViewT<Real>& smat,
                          index_t j0, index_t j1, MatrixViewT<Real> qblock, Real* spanel) {
  const index_t m = defl.m;
  const index_t n1 = defl.n1;
  const index_t n2 = m - n1;
  const index_t k12 = defl.k12();
  const index_t k23 = defl.k23();
  const index_t c1 = defl.ctot[0];
  const index_t k = defl.k;
  j1 = std::min(j1, k);
  const index_t nj = j1 - j0;
  if (nj <= 0) return;
  // k x nj copy of the panel's S columns.
  blas::lacpy(k, nj, smat.col(j0), smat.ld, spanel, k);
  if (k12 > 0) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n1, nj, k12, Real(1), w1.data, w1.ld, spanel, k,
               Real(0), qblock.col(j0), qblock.ld);
  } else {
    blas::laset(n1, nj, Real(0), Real(0), qblock.col(j0), qblock.ld);
  }
  if (k23 > 0) {
    blas::gemm(blas::Trans::No, blas::Trans::No, n2, nj, k23, Real(1), w2.data, w2.ld, spanel + c1,
               k, Real(0), qblock.col(j0) + n1, qblock.ld);
  } else {
    blas::laset(n2, nj, Real(0), Real(0), qblock.col(j0) + n1, qblock.ld);
  }
}

template <typename Real>
void copyback_panel(const DeflationResultT<Real>& defl, const MatrixViewT<Real>& wdefl,
                    index_t g0, index_t g1, MatrixViewT<Real> qblock) {
  const index_t m = defl.m;
  g0 = std::max(g0, defl.k);
  g1 = std::min(g1, m);
  for (index_t g = g0; g < g1; ++g) blas::copy(m, wdefl.col(g - defl.k), qblock.col(g));
}

#define DNC_INSTANTIATE_SECULAR(Real)                                                         \
  template void permute_panel<Real>(const DeflationResultT<Real>&, const MatrixViewT<Real>&,  \
                                    MatrixViewT<Real>, MatrixViewT<Real>, MatrixViewT<Real>,  \
                                    index_t, index_t);                                        \
  template void secular_solve_panel<Real>(const DeflationResultT<Real>&, index_t, index_t,    \
                                          Real*, MatrixViewT<Real>);                          \
  template void zhat_local_panel<Real>(const DeflationResultT<Real>&,                         \
                                       const MatrixViewT<Real>&, index_t, index_t, Real*);    \
  template void zhat_reduce<Real>(const DeflationResultT<Real>&, const MatrixViewT<Real>&,    \
                                  index_t, Real*);                                            \
  template void secular_vectors_panel<Real>(const DeflationResultT<Real>&, MatrixViewT<Real>,  \
                                            const Real*, index_t, index_t);                   \
  template void update_vectors_panel<Real>(                                                   \
      const DeflationResultT<Real>&, const MatrixViewT<Real>&, const MatrixViewT<Real>&,      \
      const MatrixViewT<Real>&, index_t, index_t, MatrixViewT<Real>, Real*);                  \
  template void copyback_panel<Real>(const DeflationResultT<Real>&, const MatrixViewT<Real>&, \
                                     index_t, index_t, MatrixViewT<Real>)

DNC_INSTANTIATE_SECULAR(double);
DNC_INSTANTIATE_SECULAR(float);

#undef DNC_INSTANTIATE_SECULAR

}  // namespace dnc::dc
