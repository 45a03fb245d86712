#include "lapack/stein.hpp"

#include <algorithm>
#include <cmath>

#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/bisect.hpp"
#include "lapack/tridiag_lu.hpp"

namespace dnc::lapack {

template <typename Real>
void stein_vector(index_t n, const Real* d, const Real* e, Real lambda, const Real* prev,
                  index_t ldprev, index_t nprev, Real* z, Rng& rng) {
  if (n <= 0) return;
  TridiagLU<Real> lu(n);
  lu.factor(n, d, e, lambda);
  const auto orthogonalize = [&] {
    for (index_t q = 0; q < nprev; ++q) {
      const Real* vq = prev + q * ldprev;
      blas::axpy(n, -blas::dot(n, vq, z), vq, z);
    }
  };
  for (index_t i = 0; i < n; ++i) z[i] = static_cast<Real>(rng.uniform_sym());
  for (int it = 0; it < 4; ++it) {
    orthogonalize();
    Real nrm = blas::nrm2(n, z);
    if (nrm < Real(1e-3)) {
      // Restart: the random vector was (nearly) inside span(prev).
      for (index_t i = 0; i < n; ++i) z[i] = static_cast<Real>(rng.uniform_sym());
      orthogonalize();
      nrm = blas::nrm2(n, z);
    }
    blas::scal(n, Real(1) / std::max(nrm, real_traits<Real>::safmin()), z);
    lu.solve(n, z);
  }
  orthogonalize();
  const Real nrm = blas::nrm2(n, z);
  blas::scal(n, Real(1) / std::max(nrm, real_traits<Real>::safmin()), z);
}

template void stein_vector<double>(index_t, const double*, const double*, double,
                                   const double*, index_t, index_t, double*, Rng&);
template void stein_vector<float>(index_t, const float*, const float*, float, const float*,
                                  index_t, index_t, float*, Rng&);

void bi_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
              Matrix& v, double reorth_tol) {
  DNC_REQUIRE(n >= 0, "bi_solve: n >= 0");
  lam.clear();
  v.resize(n, n);
  if (n == 0) return;
  v.fill(0.0);
  if (n == 1) {
    lam.assign(1, d[0]);
    v(0, 0) = 1.0;
    return;
  }
  // Eigenvalues to near machine precision by Sturm bisection.
  lam = bisect_all(n, d, e, 0.0, -1.0);
  double tnorm = 0.0;
  for (index_t i = 0; i < n; ++i) tnorm = std::max(tnorm, std::fabs(lam[i]));
  const double close = reorth_tol * std::max(tnorm, real_traits<double>::safmin());
  // Inverse iteration; dstein reorthogonalises runs of close eigenvalues.
  Rng rng(0xb15ec7ULL);
  index_t s = 0;
  while (s < n) {
    index_t t = s;
    while (t + 1 < n && lam[t + 1] - lam[t] <= close) ++t;
    for (index_t k = s; k <= t; ++k)
      stein_vector(n, d, e, lam[k], v.data() + s * v.ld(), v.ld(), k - s,
                   v.data() + k * v.ld(), rng);
    s = t + 1;
  }
}

}  // namespace dnc::lapack
