// Implicit QL/QR eigensolver for symmetric tridiagonal matrices (dsteqr).
//
// This is the leaf solver of the divide & conquer tree (the paper's STEDC
// leaf task) and the reference algorithm for correctness tests. It computes
// all eigenvalues and accumulates the orthogonal transformation into Z,
// using Wilkinson-shifted implicit QL or QR sweeps chosen per unreduced
// block so the iteration always chases the smaller end. Eigenvalues alone
// come from sterf (sterf.hpp).
// Templated on the working precision (double and float instantiations);
// epsilon, safe-min and the scaling window come from real_traits.
#pragma once

#include "common/matrix.hpp"

namespace dnc::lapack {

enum class CompZ {
  Identity  ///< Z is initialised to I, returns eigenvectors of T
  // (the LAPACK 'V' mode -- multiply into a given Z -- is covered by
  //  passing a pre-filled Z and CompZ::Vectors)
  ,
  Vectors  ///< accumulate into caller-provided Z
};

/// On entry d[0..n), e[0..n-1) hold the tridiagonal matrix. On exit d holds
/// the eigenvalues in ascending order and z (n x n, ld >= n, never null) the
/// eigenvectors. Throws NumericalError if a block fails to converge in
/// 30n iterations.
template <typename Real>
void steqr(CompZ compz, index_t n, Real* d, Real* e, Real* z, index_t ldz);

}  // namespace dnc::lapack
