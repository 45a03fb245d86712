#include "mrrr/ldl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/simd/kernels.hpp"
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

namespace {

// ld[i] = l[i] * d[i]: the numerator of every pivot-recurrence step, which
// the count kernels take precomputed.
template <typename Real>
std::vector<Real> ld_products(const RepresentationT<Real>& rep) {
  std::vector<Real> ld(rep.l.size());
  for (std::size_t i = 0; i < ld.size(); ++i) ld[i] = rep.l[i] * rep.d[i];
  return ld;
}

// Sturm counts of rep at the m shifts x through the active kernel table.
template <typename Real>
void count_at(const RepresentationT<Real>& rep, const Real* ld, const Real* x, index_t m,
              index_t* counts) {
  const index_t n = rep.n();
  obs::bump(obs::kSturmSteps, static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(m));
  blas::simd::kernels_t<Real>().sturm_counts_ldl(n, rep.d.data(), rep.l.data(), ld, x, m,
                                                 counts);
}

// bisect_ldl's loop one step at a time: next() applies the stop tests and
// picks the midpoint to count, take() narrows the bracket by that count.
template <typename Real>
struct Bisection {
  index_t k = 0;
  Real lo = 0, hi = 0, tol = 0;
  Real mid = 0;
  std::uint64_t halvings = 0;

  bool next() {
    const Real eps = real_traits<Real>::eps();
    if (!(hi - lo > tol + eps * (std::fabs(lo) + std::fabs(hi)))) return false;
    mid = Real(0.5) * (lo + hi);
    if (mid == lo || mid == hi) return false;
    ++halvings;
    return true;
  }
  void take(index_t count) { (count > k ? hi : lo) = mid; }
  Real value() const { return Real(0.5) * (lo + hi); }
};

}  // namespace

template <typename Real>
index_t sturm_count_ldl(const RepresentationT<Real>& rep, Real x) {
  const std::vector<Real> ld = ld_products(rep);
  index_t count = 0;
  count_at(rep, ld.data(), &x, 1, &count);
  return count;
}

template <typename Real>
Real bisect_ldl(const RepresentationT<Real>& rep, index_t k, Real lo, Real hi, Real tol) {
  obs::bump(obs::kBisectLdlCalls);
  const std::vector<Real> ld = ld_products(rep);
  Bisection<Real> b{k, lo, hi, tol};
  while (b.next()) {
    index_t count = 0;
    count_at(rep, ld.data(), &b.mid, 1, &count);
    b.take(count);
  }
  obs::bump(obs::kBisectLdlSteps, b.halvings);
  return b.value();
}

template <typename Real>
void refine_ldl(const RepresentationT<Real>& rep, index_t m, const index_t* k,
                const Real* guess, const Real* pad, Real* out) {
  for (index_t j = 0; j < m; ++j)
    if (!std::isfinite(guess[j]) || !std::isfinite(pad[j]))
      throw NumericalError("refine_ldl: non-finite guess or pad", static_cast<long>(k[j]));
  // Doubling from the smallest meaningful step reaches the overflow
  // threshold within the exponent range, so this cap only trips when the
  // eigenvalue lies beyond every finite bracket.
  constexpr int kMaxWidenings =
      std::numeric_limits<Real>::max_exponent - std::numeric_limits<Real>::min_exponent +
      std::numeric_limits<Real>::digits;

  // One eigenvalue in flight. It checks the low end of its bracket (count
  // <= k, else widen it), then the high end (count > k, else widen it),
  // then bisects; x is the point its next count is taken at.
  enum class Phase { kLow, kHigh, kBisect };
  struct Lane {
    index_t j;
    Phase phase;
    Real wlo, whi;
    int widenings;
    Bisection<Real> bis;
    Real x;
  };
  const auto start = [&](index_t j) {
    const Real step0 = std::max(real_traits<Real>::eps() * std::fabs(guess[j]),
                                real_traits<Real>::safmin());
    Lane ln{j, Phase::kLow, std::max(std::fabs(pad[j]), step0), 0, 0, {}, 0};
    ln.whi = ln.wlo;
    ln.bis = {k[j], guess[j] - ln.wlo, guess[j] + ln.whi, Real(0)};
    ln.x = ln.bis.lo;
    return ln;
  };
  // Consumes the count at ln.x; false once the eigenvalue is final.
  const auto advance = [&](Lane& ln, index_t count) {
    const long kj = static_cast<long>(k[ln.j]);
    const auto widen = [&](Real& w, Real& bound, Real sign) {
      if (++ln.widenings > kMaxWidenings)
        throw NumericalError("refine_ldl: no bracket for the eigenvalue", kj);
      w *= Real(2);
      bound = guess[ln.j] + sign * w;
      ln.x = bound;
    };
    switch (ln.phase) {
      case Phase::kLow:
        if (count > k[ln.j]) {
          widen(ln.wlo, ln.bis.lo, Real(-1));
        } else {
          ln.phase = Phase::kHigh;
          ln.x = ln.bis.hi;
        }
        return true;
      case Phase::kHigh:
        if (count <= k[ln.j]) {
          widen(ln.whi, ln.bis.hi, Real(1));
          return true;
        }
        // An overflowed bound counts as 0 / n, which ends the checks above.
        if (!std::isfinite(ln.bis.lo) || !std::isfinite(ln.bis.hi))
          throw NumericalError("refine_ldl: bracket overflowed", kj);
        ln.phase = Phase::kBisect;
        obs::bump(obs::kBisectLdlCalls);
        break;
      case Phase::kBisect:
        ln.bis.take(count);
        break;
    }
    if (!ln.bis.next()) return false;
    ln.x = ln.bis.mid;
    return true;
  };

  const std::vector<Real> ld = ld_products(rep);
  const std::size_t width =
      static_cast<std::size_t>(std::min(blas::simd::kernels_t<Real>().sturm_lanes, m));
  std::vector<Lane> lanes;
  lanes.reserve(width);
  std::vector<Real> x(width);
  std::vector<index_t> counts(width);
  std::uint64_t halvings = 0;
  index_t next = 0;
  for (;;) {
    while (lanes.size() < width && next < m) lanes.push_back(start(next++));
    if (lanes.empty()) break;
    for (std::size_t i = 0; i < lanes.size(); ++i) x[i] = lanes[i].x;
    count_at(rep, ld.data(), x.data(), static_cast<index_t>(lanes.size()), counts.data());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (advance(lanes[i], counts[i])) {
        lanes[kept++] = lanes[i];
      } else {
        out[lanes[i].j] = lanes[i].bis.value();
        halvings += lanes[i].bis.halvings;
      }
    }
    lanes.resize(kept);
  }
  obs::bump(obs::kBisectLdlSteps, halvings);
}

#define DNC_INSTANTIATE_LDL(Real)                                                             \
  template RepresentationT<Real> ldl_factor<Real>(index_t, const Real*, const Real*, Real);   \
  template bool dstqds<Real>(const RepresentationT<Real>&, Real, RepresentationT<Real>&);     \
  template index_t sturm_count_ldl<Real>(const RepresentationT<Real>&, Real);                 \
  template Real bisect_ldl<Real>(const RepresentationT<Real>&, index_t, Real, Real, Real);     \
  template void refine_ldl<Real>(const RepresentationT<Real>&, index_t, const index_t*,      \
                                 const Real*, const Real*, Real*);

DNC_INSTANTIATE_LDL(double)
DNC_INSTANTIATE_LDL(float)

#undef DNC_INSTANTIATE_LDL

}  // namespace dnc::mrrr
