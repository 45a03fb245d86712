// Per-solve numerical-health estimation: sampled-column residual and
// orthogonality checks, O(n*s) for s sampled eigenpairs.
//
// The full verification (every residual, the n x n Gram matrix) costs more
// than the solve and lives in tests/. A production service still needs a
// signal that a solve went numerically wrong -- an fp32 cluster collapse, a
// deflation-tolerance bug -- before the result ships. This probe snapshots
// the tridiagonal before the driver destroys it, then checks s evenly
// spaced eigenpairs: a tridiagonal matvec is O(n) per column, so the probe
// stays sub-percent of the solve and is cheap enough for the always-on
// history/flight-recorder path.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "obs/report.hpp"

namespace dnc::obs {

class HealthProbe {
 public:
  static constexpr int kDefaultSamples = 16;

  /// Snapshots (d, e) -- the fp64 tridiagonal BEFORE the solve scales and
  /// destroys it. Until armed, evaluate() returns a zero HealthMetrics.
  void arm(index_t n, const double* d, const double* e);
  bool armed() const { return n_ > 0; }

  /// Checks ceil(s) evenly spaced eigenpairs of the solved system: lam
  /// ascending, v column-major (ldv >= n). Per column this computes the
  /// relative residual ||T v - lam v||_inf / ||T||_1, the normalisation
  /// error |1 - ||v||^2|, and the dot product against the neighbouring
  /// sampled column (adjacent eigenvectors are where fp32 clusters lose
  /// orthogonality first).
  HealthMetrics evaluate(const double* lam, const double* v, index_t ldv, index_t nvec,
                         int samples = kDefaultSamples) const;

 private:
  index_t n_ = 0;
  std::vector<double> d_, e_;
};

}  // namespace dnc::obs
