#include "mrrr/ldl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "obs/counters.hpp"

namespace dnc::mrrr {

template <typename Real>
RepresentationT<Real> ldl_factor(index_t n, const Real* d, const Real* e, Real sigma) {
  DNC_REQUIRE(n >= 1, "ldl_factor: n >= 1");
  RepresentationT<Real> rep;
  rep.sigma = sigma;
  rep.d.resize(n);
  rep.l.resize(n > 0 ? n - 1 : 0);
  const Real tiny = real_traits<Real>::safmin();
  Real di = d[0] - sigma;
  for (index_t i = 0; i < n - 1; ++i) {
    if (di == Real(0)) di = tiny;  // pivot perturbation (dlarrf-style eps bump)
    rep.d[i] = di;
    rep.l[i] = e[i] / di;
    di = (d[i + 1] - sigma) - rep.l[i] * e[i];
  }
  rep.d[n - 1] = di;
  return rep;
}

template <typename Real>
bool dstqds(const RepresentationT<Real>& in, Real tau, RepresentationT<Real>& out) {
  const index_t n = in.n();
  out.sigma = in.sigma + tau;
  out.d.resize(n);
  out.l.resize(n > 0 ? n - 1 : 0);
  bool ok = true;
  Real s = -tau;
  for (index_t i = 0; i < n - 1; ++i) {
    const Real dplus = in.d[i] + s;
    if (dplus == Real(0) || !std::isfinite(dplus)) ok = false;
    out.d[i] = dplus;
    const Real ld = in.l[i] * in.d[i];
    out.l[i] = ld / dplus;
    s = out.l[i] * in.l[i] * s - tau;
    if (!std::isfinite(s)) ok = false;
  }
  out.d[n - 1] = in.d[n - 1] + s;
  return ok && std::isfinite(out.d[n - 1]);
}

template <typename Real>
index_t sturm_count_ldl(const RepresentationT<Real>& rep, Real x) {
  // Differential stationary transform of L D L^T - x I, counting negative
  // pivots. The recurrence is the dstqds body; NaN-safe handling follows
  // dlaneg: a zero pivot is nudged rather than propagated.
  const index_t n = rep.n();
  obs::bump(obs::kSturmSteps, static_cast<std::uint64_t>(n));
  index_t count = 0;
  Real s = -x;
  const Real tiny = real_traits<Real>::safmin();
  for (index_t i = 0; i < n - 1; ++i) {
    Real dplus = rep.d[i] + s;
    if (dplus < Real(0)) ++count;
    if (dplus == Real(0)) dplus = -tiny;
    const Real t = rep.l[i] * rep.d[i] / dplus;
    s = t * rep.l[i] * s - x;
    if (!std::isfinite(s)) {
      // Breakdown: restart the recurrence conservatively (dlaneg's
      // "blueprint" fallback uses the plain tridiagonal recurrence).
      s = -x;
    }
  }
  if (rep.d[n - 1] + s < Real(0)) ++count;
  return count;
}

template <typename Real>
Real bisect_ldl(const RepresentationT<Real>& rep, index_t k, Real lo, Real hi, Real tol) {
  obs::bump(obs::kBisectLdlCalls);
  std::uint64_t halvings = 0;
  const Real eps = real_traits<Real>::eps();
  while (hi - lo > tol + eps * (std::fabs(lo) + std::fabs(hi))) {
    const Real mid = Real(0.5) * (lo + hi);
    if (mid == lo || mid == hi) break;
    ++halvings;
    if (sturm_count_ldl(rep, mid) > k)
      hi = mid;
    else
      lo = mid;
  }
  obs::bump(obs::kBisectLdlSteps, halvings);
  return Real(0.5) * (lo + hi);
}

template <typename Real>
Real refine_ldl(const RepresentationT<Real>& rep, index_t k, Real guess, Real pad) {
  if (!std::isfinite(guess) || !std::isfinite(pad))
    throw NumericalError("refine_ldl: non-finite guess or pad", static_cast<long>(k));
  // Doubling from the smallest meaningful step reaches the overflow
  // threshold within the exponent range, so this cap only trips when the
  // eigenvalue lies beyond every finite bracket.
  constexpr int kMaxWidenings =
      std::numeric_limits<Real>::max_exponent - std::numeric_limits<Real>::min_exponent +
      std::numeric_limits<Real>::digits;
  const Real step0 = std::max(real_traits<Real>::eps() * std::fabs(guess),
                              real_traits<Real>::safmin());
  Real wlo = std::max(std::fabs(pad), step0);
  Real whi = wlo;
  Real lo = guess - wlo;
  Real hi = guess + whi;
  int widenings = 0;
  const auto widen = [&](Real& w, Real& bound, Real sign) {
    if (++widenings > kMaxWidenings)
      throw NumericalError("refine_ldl: no bracket for the eigenvalue", static_cast<long>(k));
    w *= Real(2);
    bound = guess + sign * w;
  };
  while (sturm_count_ldl(rep, lo) > k) widen(wlo, lo, Real(-1));
  while (sturm_count_ldl(rep, hi) <= k) widen(whi, hi, Real(1));
  // An overflowed bound counts as 0 / n, which ends the loops above.
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw NumericalError("refine_ldl: bracket overflowed", static_cast<long>(k));
  return bisect_ldl(rep, k, lo, hi, Real(0));
}

#define DNC_INSTANTIATE_LDL(Real)                                                             \
  template RepresentationT<Real> ldl_factor<Real>(index_t, const Real*, const Real*, Real);   \
  template bool dstqds<Real>(const RepresentationT<Real>&, Real, RepresentationT<Real>&);     \
  template index_t sturm_count_ldl<Real>(const RepresentationT<Real>&, Real);                 \
  template Real bisect_ldl<Real>(const RepresentationT<Real>&, index_t, Real, Real, Real);     \
  template Real refine_ldl<Real>(const RepresentationT<Real>&, index_t, Real, Real);

DNC_INSTANTIATE_LDL(double)
DNC_INSTANTIATE_LDL(float)

#undef DNC_INSTANTIATE_LDL

}  // namespace dnc::mrrr
