#include "mrrr/getvec.hpp"

#include <cmath>
#include <vector>

#include "blas/level1.hpp"
#include "blas/simd/kernels.hpp"
#include "common/aligned_buffer.hpp"
#include "common/real_traits.hpp"

namespace dnc::mrrr {

template <typename Real>
void twisted_eigenvectors(const RepresentationT<Real>& rep, index_t m, const Real* lambda,
                          Real* z, index_t ldz, GetvecResultT<Real>* res) {
  const index_t n = rep.n();
  if (n == 1) {
    for (index_t j = 0; j < m; ++j) {
      z[j * ldz] = Real(1);
      res[j] = {0, rep.d[0] - lambda[j], Real(1), Real(0)};
      res[j].resid = std::fabs(res[j].gamma);
    }
    return;
  }
  // The factorizations: for each eigenvalue, L+ of LDL^T - lambda (lplus),
  // U- of its bottom-up counterpart (umult) and the twist, in one batched
  // kernel call; see blas/simd/kernels.hpp for the layout. The workspace is
  // per thread, so a Getvec task pays no allocation per pass.
  const auto& kt = blas::simd::kernels_t<Real>();
  const index_t ldw = (m + kt.sturm_lanes - 1) / kt.sturm_lanes * kt.sturm_lanes;
  thread_local AlignedBuffer workspace;
  Real* ld = workspace.reserve<Real>(2 * (n - 1) * (ldw + 1) + m);
  Real* dll = ld + (n - 1);
  Real* lplus = dll + (n - 1);
  Real* umult = lplus + (n - 1) * ldw;
  Real* gamma = umult + (n - 1) * ldw;
  for (index_t i = 0; i + 1 < n; ++i) {
    ld[i] = rep.l[i] * rep.d[i];
    dll[i] = ld[i] * rep.l[i];
  }
  std::vector<index_t> twist(m);
  kt.twisted_ldl(n, rep.d.data(), rep.l.data(), ld, dll, lambda, m, lplus, umult, ldw, gamma,
                 twist.data());

  // One step of a back-substitution: the next entry from its neighbour,
  // flushed to zero once it stops being meaningful.
  const Real big = Real(1) / real_traits<Real>::safmin();
  const auto step = [big](Real mult, Real prev) {
    const Real zi = -mult * prev;
    return std::isfinite(zi) && std::fabs(zi) <= big ? zi : Real(0);
  };
  for (index_t j = 0; j < m; ++j) {
    Real* zj = z + j * ldz;
    const Real* lp = lplus + j;
    const Real* um = umult + j;
    const index_t k = twist[j];
    // Solve N z = gamma e_k: z_k = 1, then the twisted back-substitutions,
    // up through L+ and down through U-. Each is a chain of dependent
    // multiplies, so the two run side by side, and the flush is left out
    // of the chains: a flag records whether any entry needed it (an entry
    // that needs none equals step's), and only then do the chains rerun
    // with step.
    zj[k] = Real(1);
    Real up = Real(1), down = Real(1);
    bool flush = false;
    index_t iu = k - 1, id = k;
    for (; iu >= 0 && id < n - 1; --iu, ++id) {
      zj[iu] = up = -lp[iu * ldw] * up;
      zj[id + 1] = down = -um[id * ldw] * down;
      flush |= !(std::fabs(up) <= big) | !(std::fabs(down) <= big);
    }
    for (; iu >= 0; --iu) {
      zj[iu] = up = -lp[iu * ldw] * up;
      flush |= !(std::fabs(up) <= big);
    }
    for (; id < n - 1; ++id) {
      zj[id + 1] = down = -um[id * ldw] * down;
      flush |= !(std::fabs(down) <= big);
    }
    if (flush) {
      for (index_t i = k - 1; i >= 0; --i) zj[i] = step(lp[i * ldw], zj[i + 1]);
      for (index_t i = k; i < n - 1; ++i) zj[i + 1] = step(um[i * ldw], zj[i]);
    }
    const Real nrm = blas::nrm2(n, zj);
    blas::scal(n, Real(1) / nrm, zj);
    res[j] = {k, gamma[j], nrm * nrm, std::fabs(gamma[j]) / nrm};
  }
}

template <typename Real>
GetvecResultT<Real> twisted_eigenvector(const RepresentationT<Real>& rep, Real lambda,
                                        Real* z) {
  GetvecResultT<Real> res;
  twisted_eigenvectors(rep, 1, &lambda, z, rep.n(), &res);
  return res;
}

template <typename Real>
Real rayleigh_correction(const GetvecResultT<Real>& r) {
  return r.gamma / r.znorm2;
}

#define DNC_INSTANTIATE_GETVEC(Real)                                                 \
  template GetvecResultT<Real> twisted_eigenvector<Real>(const RepresentationT<Real>&,  \
                                                         Real, Real*);               \
  template void twisted_eigenvectors<Real>(const RepresentationT<Real>&, index_t,       \
                                           const Real*, Real*, index_t,                \
                                           GetvecResultT<Real>*);                      \
  template Real rayleigh_correction<Real>(const GetvecResultT<Real>&);

DNC_INSTANTIATE_GETVEC(double)
DNC_INSTANTIATE_GETVEC(float)

#undef DNC_INSTANTIATE_GETVEC

}  // namespace dnc::mrrr
