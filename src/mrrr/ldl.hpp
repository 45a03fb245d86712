// Relatively robust representations: LDL^T factorizations of shifted
// symmetric tridiagonal matrices and the differential qds transforms that
// move between them (the core machinery of the MRRR algorithm, after
// Dhillon; dlarrf/dlarrb/dlaneg equivalents in spirit). Templated on the
// working precision Real (double / float).
//
// A representation stores D (diagonal of D) and L (unit subdiagonal of L)
// with the invariant T - sigma*I = L D L^T for the accumulated shift sigma.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace dnc::mrrr {

template <typename Real>
struct RepresentationT {
  Real sigma = 0;          ///< accumulated shift relative to the original T
  std::vector<Real> d;     ///< D diagonal, size n
  std::vector<Real> l;     ///< L subdiagonal, size n-1
  index_t n() const { return static_cast<index_t>(d.size()); }
};

using Representation = RepresentationT<double>;

/// Factors T - sigma*I = L D L^T directly from the tridiagonal (d, e).
/// Pivots that vanish are perturbed by a tiny amount (the representation
/// stays relatively robust as long as sigma is outside the spectrum or the
/// factorization is diagonally dominant there).
template <typename Real>
RepresentationT<Real> ldl_factor(index_t n, const Real* d, const Real* e, Real sigma);

/// Differential stationary qds: given rep of M = L D L^T computes the
/// representation of M - tau*I = L+ D+ L+^T. Returns false when an interior
/// breakdown made the result unreliable (caller should try another shift).
template <typename Real>
bool dstqds(const RepresentationT<Real>& in, Real tau, RepresentationT<Real>& out);

/// Number of eigenvalues of L D L^T smaller than x (differential stationary
/// count; robust against zero pivots).
template <typename Real>
index_t sturm_count_ldl(const RepresentationT<Real>& rep, Real x);

/// Bisection for eigenvalue k (0-based) of L D L^T in [lo, hi] to absolute
/// tolerance tol (plus relative floor).
template <typename Real>
Real bisect_ldl(const RepresentationT<Real>& rep, index_t k, Real lo, Real hi, Real tol);

/// Eigenvalue k (0-based) of L D L^T from an approximation `guess` with
/// error bound `pad`: verifies with two Sturm counts that [guess - pad,
/// guess + pad] brackets eigenvalue k, widens a failing side by doubling,
/// then bisects to full relative accuracy (bisect_ldl with tol = 0). A
/// wrong pad costs extra counts, never a wrong eigenvalue. Throws
/// NumericalError when guess or pad is not finite or the bracket cannot be
/// established within the widening cap.
template <typename Real>
Real refine_ldl(const RepresentationT<Real>& rep, index_t k, Real guess, Real pad);

}  // namespace dnc::mrrr
