// Eigenvalues of a symmetric tridiagonal matrix, no vectors: a port of
// LAPACK dsterf, the Pal-Walker-Kahan square-root-free implicit QL/QR on
// squared off-diagonals (no rotation is ever formed). It is MRRR's
// root-eigenvalue kernel (mrrr.cpp), and an independent check for tests and
// benchmarks. Templated on the working precision.
#pragma once

#include "common/matrix.hpp"

namespace dnc::lapack {

/// d[0..n) / e[0..n-1) in, ascending eigenvalues in d out. e is destroyed.
/// Throws NumericalError if a block fails to converge in 30n iterations.
template <typename Real>
void sterf(index_t n, Real* d, Real* e);

}  // namespace dnc::lapack
