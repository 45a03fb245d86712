#include "lapack/laed4.hpp"

#include <algorithm>
#include <cmath>

#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "obs/counters.hpp"

namespace dnc::lapack {
namespace {

template <typename Real>
struct SecularEval {
  Real w;     ///< f value: 1 + rho*(psi + phi)
  Real dpsi;  ///< derivative of the left part (j <= split)
  Real dphi;  ///< derivative of the right part (j > split)
  Real asum;  ///< sum of |terms|, for the convergence tolerance
  Real dw() const { return dpsi + dphi; }
};

// Evaluates f and the side-split derivatives at lambda = origin + tau given
// precomputed delta0[j] = d[j] - origin. The split index separates the psi
// sum (poles left of the root, j <= split) from the phi sum -- the
// fixed-weight rational model needs the full per-side derivative sums, not
// just the adjacent poles' contributions.
template <typename Real>
SecularEval<Real> evaluate(index_t k, const Real* delta0, const Real* z, Real rho, Real tau,
                           index_t split) {
  SecularEval<Real> ev{Real(1), Real(0), Real(0), Real(1)};
  // Vectorized pole sums (the hot loop of every LAED4 task): one pass per
  // side of the split so the per-side derivative sums stay separate.
  const auto& kt = blas::simd::kernels_t<Real>();
  kt.laed4_sums(0, split + 1, delta0, z, rho, tau, &ev.w, &ev.dpsi, &ev.asum);
  kt.laed4_sums(split + 1, k, delta0, z, rho, tau, &ev.w, &ev.dphi, &ev.asum);
  return ev;
}

// Solves the quadratic c*eta^2 - a*eta + b = 0 arising from the three-pole
// model, returning the root on the correct side (the one LAPACK picks via
// the numerically stable formula).
template <typename Real>
Real solve_model_quadratic(Real a, Real b, Real c) {
  if (c == Real(0)) {
    if (a == Real(0)) return Real(0);
    return b / a;
  }
  const Real disc = std::max(Real(0), a * a - Real(4) * b * c);
  const Real sq = std::sqrt(disc);
  if (a <= Real(0)) return (a - sq) / (Real(2) * c);
  return (Real(2) * b) / (a + sq);
}

}  // namespace

template <typename Real>
Real laed5(index_t i, const Real* d, const Real* z, Real rho, Real* delta) {
  DNC_REQUIRE(i == 0 || i == 1, "laed5: i out of range");
  const Real del = d[1] - d[0];
  Real lambda;
  if (i == 0) {
    const Real b = del + rho * (z[0] * z[0] + z[1] * z[1]);
    const Real c = rho * z[0] * z[0] * del;
    // tau relative to d[0]; the root of tau^2 - b tau + c = 0 in (0, del).
    const Real tau = Real(2) * c / (b + std::sqrt(std::fabs(b * b - Real(4) * c)));
    lambda = d[0] + tau;
    if (delta != nullptr) {
      delta[0] = -tau;
      delta[1] = del - tau;
    }
  } else {
    const Real b = -del + rho * (z[0] * z[0] + z[1] * z[1]);
    const Real c = rho * z[1] * z[1] * del;
    Real tau;  // relative to d[1]
    if (b > Real(0))
      tau = (b + std::sqrt(b * b + Real(4) * c)) / Real(2);
    else
      tau = Real(2) * c / (-b + std::sqrt(b * b + Real(4) * c));
    lambda = d[1] + tau;
    if (delta != nullptr) {
      delta[0] = -del - tau;
      delta[1] = -tau;
    }
  }
  return lambda;
}

template <typename Real>
SecularResultT<Real> laed4(index_t k, index_t i, const Real* d, const Real* z, Real rho,
                           Real* delta) {
  DNC_REQUIRE(k >= 1 && i >= 0 && i < k, "laed4: bad dimensions");
  DNC_REQUIRE(rho > Real(0), "laed4: rho must be positive");
  SecularResultT<Real> res;

  if (k == 1) {
    res.lambda = d[0] + rho * z[0] * z[0];
    res.origin = d[0];
    res.tau = rho * z[0] * z[0];
    if (delta != nullptr) delta[0] = -res.tau;
    obs::bump_laed4(res.iterations);
    return res;
  }
  if (k == 2) {
    res.lambda = laed5(i, d, z, rho, delta);
    res.origin = d[i];
    res.tau = res.lambda - d[i];
    obs::bump_laed4(res.iterations);
    return res;
  }

  const Real eps = real_traits<Real>::eps();
  const bool last = (i == k - 1);
  DNC_REQUIRE(delta != nullptr, "laed4: delta buffer required");
  const auto& kt = blas::simd::kernels_t<Real>();

  // ---- Choose the origin pole, the bracket in tau space and the initial
  // guess. ----
  index_t origin_idx;
  Real lo, hi, tau;
  if (last) {
    // Origin d_{k-1}; the sum of z_j^2 bounds the last interval,
    // lambda_{k-1} < d_{k-1} + rho*|z|^2, so tau lies in (0, rho*|z|^2].
    origin_idx = k - 1;
    lo = Real(0);
    hi = rho * kt.sumsq(k, z);
    tau = Real(0.5) * (lo + hi);
  } else {
    // Evaluate f at the interval midpoint to decide which pole is closer.
    // The poles other than d_i and d_{i+1} give the constant c of the
    // two-pole model anchored there, whose root is dlaed4's initial guess.
    const Real del = d[i + 1] - d[i];
    const Real mid = del / Real(2);
    for (index_t j = 0; j < k; ++j) delta[j] = d[j] - d[i];
    Real c = Real(1), dsum = Real(0), asum = Real(0);
    kt.laed4_sums(0, i, delta, z, rho, mid, &c, &dsum, &asum);
    kt.laed4_sums(i + 2, k, delta, z, rho, mid, &c, &dsum, &asum);
    const Real zi2 = rho * z[i] * z[i];
    const Real zj2 = rho * z[i + 1] * z[i + 1];
    const Real fmid = c + zi2 / -mid + zj2 / (del - mid);
    if (fmid > Real(0)) {
      // Root in the left half: origin at d_i, tau in (0, del/2].
      origin_idx = i;
      lo = Real(0);
      hi = mid;
      const Real a = c * del + zi2 + zj2;
      const Real b = zi2 * del;
      const Real sq = std::sqrt(std::fabs(a * a - Real(4) * b * c));
      tau = a > Real(0) ? Real(2) * b / (a + sq) : (a - sq) / (Real(2) * c);
    } else {
      // Root in the right half: origin at d_{i+1}, tau in [-del/2, 0).
      origin_idx = i + 1;
      lo = -mid;
      hi = Real(0);
      const Real a = c * del - zi2 - zj2;
      const Real b = zj2 * del;
      const Real sq = std::sqrt(std::fabs(a * a + Real(4) * b * c));
      tau = a < Real(0) ? Real(2) * b / (a - sq) : -(a + sq) / (Real(2) * c);
    }
    if (!(tau > lo && tau < hi)) tau = Real(0.5) * (lo + hi);
  }
  res.origin = d[origin_idx];

  // delta0[j] = d_j - origin, exact differences of representable numbers.
  // We reuse the caller's delta buffer for it and subtract tau at the end.
  for (index_t j = 0; j < k; ++j) delta[j] = d[j] - res.origin;

  // The two poles adjacent to the root drive the rational model.
  const index_t ii = last ? k - 2 : i;
  const index_t jj = last ? k - 1 : i + 1;

  // ---- Safeguarded rational iteration (fixed-weight scheme). ----
  // Generous cap: near-pole roots may need tens of bisection halvings
  // before the rational model takes over.
  const int kMaxIter = 200;
  for (int it = 0; it < kMaxIter; ++it) {
    res.iterations = it + 1;
    const SecularEval<Real> ev = evaluate(k, delta, z, rho, tau, ii);
    // Error bound in the spirit of dlaed4's ERRETM: the computed w is exact
    // up to ~8 eps times the sum of term magnitudes; iterating below that
    // floor cannot improve the root.
    const Real erretm = Real(8) * eps * ev.asum;
    if (std::fabs(ev.w) <= erretm) break;
    if (ev.w > Real(0))
      hi = std::min(hi, tau);
    else
      lo = std::max(lo, tau);

    const Real d1 = delta[ii] - tau;
    const Real d2 = delta[jj] - tau;
    // Two-pole rational model f(tau+eta) ~ c + s1/(d1-eta) + s2/(d2-eta)
    // with the weights absorbing the FULL per-side derivative sums (Li's
    // fixed-weight method, as in dlaed4): matches f and f' at eta = 0 and
    // keeps the model poles where the nearest true poles are.
    const Real s1 = d1 * d1 * ev.dpsi;
    const Real s2 = d2 * d2 * ev.dphi;
    const Real c = ev.w - d1 * ev.dpsi - d2 * ev.dphi;
    const Real a = c * (d1 + d2) + s1 + s2;
    const Real b = c * d1 * d2 + s1 * d2 + s2 * d1;
    Real eta = solve_model_quadratic(a, b, c);
    // f is increasing, so the step must oppose the sign of w.
    if (eta * ev.w > Real(0)) eta = -ev.w / ev.dw();
    Real cand = tau + eta;
    if (!std::isfinite(cand) || cand <= lo || cand >= hi) cand = Real(0.5) * (lo + hi);
    // Roots can sit at distance ~rho*z_i^2 from their pole -- many orders of
    // magnitude below eps*|origin| -- and the z-hat stabilisation needs tau
    // to full RELATIVE accuracy. The only legitimate stops are the
    // |w| <= erretm test above (which scales with the near-pole term and
    // therefore enforces relative accuracy) and lack of representable
    // progress.
    if (cand == tau) break;
    tau = cand;
  }

  res.tau = tau;
  res.lambda = res.origin + tau;
  for (index_t j = 0; j < k; ++j) delta[j] -= tau;
  obs::bump_laed4(res.iterations);
  return res;
}

template double laed5<double>(index_t, const double*, const double*, double, double*);
template float laed5<float>(index_t, const float*, const float*, float, float*);
template SecularResultT<double> laed4<double>(index_t, index_t, const double*, const double*,
                                              double, double*);
template SecularResultT<float> laed4<float>(index_t, index_t, const float*, const float*,
                                            float, float*);

}  // namespace dnc::lapack
