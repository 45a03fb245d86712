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
/// count; robust against zero pivots). One lane of the active table's
/// sturm_counts_ldl kernel.
template <typename Real>
index_t sturm_count_ldl(const RepresentationT<Real>& rep, Real x);

/// Bisection for eigenvalue k (0-based) of L D L^T in [lo, hi] to absolute
/// tolerance tol (plus relative floor).
template <typename Real>
Real bisect_ldl(const RepresentationT<Real>& rep, index_t k, Real lo, Real hi, Real tol);

/// Eigenvalues k[j] (0-based) of L D L^T, j < m, from approximations
/// guess[j] with error bounds pad[j], into out[j]. Per eigenvalue: two
/// Sturm counts verify that [guess - pad, guess + pad] brackets it, a
/// failing side widens by doubling, then bisection runs to full relative
/// accuracy (bisect_ldl's steps with tol = 0). A wrong pad costs extra
/// counts, never a wrong eigenvalue. The eigenvalues share the counting
/// passes: a pool of kernel lanes (the table's sturm_lanes) each replays
/// one eigenvalue's decisions, and a finished lane takes the next
/// eigenvalue of the batch, so the result, and every count, equals the
/// one-at-a-time order. Throws NumericalError when a guess or pad is not
/// finite or a bracket cannot be established within the widening cap.
template <typename Real>
void refine_ldl(const RepresentationT<Real>& rep, index_t m, const index_t* k,
                const Real* guess, const Real* pad, Real* out);

}  // namespace dnc::mrrr
