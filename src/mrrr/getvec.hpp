// Eigenvector of an LDL^T representation by twisted factorization (dlar1v
// equivalent): run the differential stationary transform top-down and the
// differential progressive transform bottom-up, twist at the index with the
// smallest |gamma|, and solve for the vector in O(n). The factorizations of
// a batch of eigenvalues run side by side, one per lane of the active
// table's twisted_ldl kernel; the back-substitutions run one vector at a
// time.
#pragma once

#include "common/rng.hpp"
#include "mrrr/ldl.hpp"

namespace dnc::mrrr {

template <typename Real>
struct GetvecResultT {
  index_t twist = 0;   ///< chosen twist index
  Real gamma = 0;      ///< pivot at the twist (residual scale)
  Real znorm2 = 0;     ///< squared norm of the unnormalised vector
  Real resid = 0;      ///< |gamma| / ||z||: backward error estimate
};

using GetvecResult = GetvecResultT<double>;

/// Computes the eigenvector of rep for the eigenvalue lambda (relative to
/// the representation's shift, i.e. T v = (rep.sigma + lambda) v). z must
/// have length rep.n(); on return it is normalised.
template <typename Real>
GetvecResultT<Real> twisted_eigenvector(const RepresentationT<Real>& rep, Real lambda, Real* z);

/// twisted_eigenvector for m eigenvalues lambda[j] of one representation:
/// vector j goes to z + j * ldz (ldz >= rep.n()), its result to res[j].
/// The bytes equal those of m single calls under every kernel table.
template <typename Real>
void twisted_eigenvectors(const RepresentationT<Real>& rep, index_t m, const Real* lambda,
                          Real* z, index_t ldz, GetvecResultT<Real>* res);

/// One step of eigenvalue refinement from the twisted factorization: the
/// Rayleigh-quotient correction gamma / ||z||^2 (dlar1v's RQCORR).
template <typename Real>
Real rayleigh_correction(const GetvecResultT<Real>& r);

/// The dstein-style inverse-iteration fallback now lives in
/// lapack/stein.hpp (it is pure tridiagonal machinery); mrrr uses it for
/// numerically degenerate clusters.

}  // namespace dnc::mrrr
