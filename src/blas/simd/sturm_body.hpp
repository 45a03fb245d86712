// Bodies of the vector L D L^T kernels (sturm_avx2.cpp, sturm_avx512.cpp),
// written once over the per-ISA vector interfaces V of vec_avx2.hpp and
// vec_avx512.hpp, so every table runs the scalar references' operations
// (sturm_scalar.cpp) in the same order, one lane per shift x. Include only
// from files compiled with -ffp-contract=off.
//
// sturm_counts_vec, the Sturm counts:
//
//   dplus = d[i] + s;  count += (dplus < 0);  dplus == 0  ->  -safmin
//   s = ((ld[i] / dplus) * l[i]) * s - x;     s not finite  ->  -x
//
// twisted_ldl_vec, the twisted factorizations, with guard(t) = safmin for
// t == 0 and +-1/safmin (the sign of t) for t not finite:
//
//   stationary, top-down:  dplus = guard(d[i] + s);  lplus_i = ld[i] / dplus
//                          s = ((lplus_i * l[i]) * s) - x
//   progressive, bottom-up (p = d[n-1] - x first):
//                          dminus = guard(dll[i] + p);  umult_i = ld[i] / dminus
//                          p = ((p * d[i]) / dminus) - x
//   twist: the first i with the least |(s_i + p_i) + x|
//
// Two vectors are in flight per pass, so one vector's divide runs while
// the other waits on its own.
//
// From V it reads: Real, Reg, Cnt and kLanes; set1, load, store, add, sub,
// mul, div, neg, abs and copysign on Reg; the masks lt, le, eq and finite;
// select(mask, if_true, if_false); and zero_cnt, inc(cnt, mask) and
// store_cnt(out, cnt), which writes the kLanes per-lane counts as index_t.
// Like kernel_body.hpp, it calls no library function (see there).
#pragma once

#include <limits>

#include "common/matrix.hpp"
#include "common/real_traits.hpp"

namespace dnc::blas::simd {

template <typename V, typename Real = typename V::Real>
void sturm_counts_vec(index_t n, const Real* d, const Real* l, const Real* ld, const Real* x,
                      index_t m, index_t* counts) {
  using Reg = typename V::Reg;
  constexpr index_t L = V::kLanes;
  const Reg zero = V::set1(Real(0));
  constexpr Real kTiny = real_traits<Real>::safmin();
  const Reg neg_tiny = V::set1(-kTiny);
  for (index_t j0 = 0; j0 < m; j0 += 2 * L) {
    const index_t w = m - j0 < 2 * L ? m - j0 : 2 * L;
    // A partial pass repeats its last shift in the spare lanes.
    alignas(64) Real xb[2 * L];
    for (index_t j = 0; j < 2 * L; ++j) xb[j] = x[j0 + (j < w ? j : w - 1)];
    const Reg x0 = V::load(xb), x1 = V::load(xb + L);
    const Reg restart0 = V::neg(x0), restart1 = V::neg(x1);
    Reg s0 = restart0, s1 = restart1;
    typename V::Cnt c0 = V::zero_cnt(), c1 = V::zero_cnt();
    for (index_t i = 0; i + 1 < n; ++i) {
      const Reg di = V::set1(d[i]), li = V::set1(l[i]), ldi = V::set1(ld[i]);
      Reg p0 = V::add(di, s0), p1 = V::add(di, s1);
      c0 = V::inc(c0, V::lt(p0, zero));
      c1 = V::inc(c1, V::lt(p1, zero));
      p0 = V::select(V::eq(p0, zero), neg_tiny, p0);
      p1 = V::select(V::eq(p1, zero), neg_tiny, p1);
      s0 = V::sub(V::mul(V::mul(V::div(ldi, p0), li), s0), x0);
      s1 = V::sub(V::mul(V::mul(V::div(ldi, p1), li), s1), x1);
      s0 = V::select(V::finite(s0), s0, restart0);
      s1 = V::select(V::finite(s1), s1, restart1);
    }
    const Reg dn = V::set1(d[n - 1]);
    c0 = V::inc(c0, V::lt(V::add(dn, s0), zero));
    c1 = V::inc(c1, V::lt(V::add(dn, s1), zero));
    index_t cb[2 * L];
    V::store_cnt(cb, c0);
    V::store_cnt(cb + L, c1);
    for (index_t j = 0; j < w; ++j) counts[j0 + j] = cb[j];
  }
}

// The pivot guard of both recurrences: zero -> safmin, not finite ->
// +-1/safmin with the sign of v (std::copysign's, so a NaN's sign bit).
template <typename V, typename Reg = typename V::Reg>
Reg twisted_guard(Reg v) {
  using Real = typename V::Real;
  constexpr Real kTiny = real_traits<Real>::safmin();
  constexpr Real kHuge = Real(1) / kTiny;
  return V::select(V::finite(v), V::select(V::eq(v, V::set1(Real(0))), V::set1(kTiny), v),
                   V::copysign(V::set1(kHuge), v));
}

// The running twist choice of one vector, fed bottom-up: a candidate
// replaces the best one when its |gamma| is not larger, so the smallest
// index of the least |gamma| wins, as in the scalar top-down scan with a
// strict <. A NaN |gamma| never wins; the caller applies the scan's one
// other rule, that a NaN gamma_0 keeps the twist at 0.
template <typename V>
struct TwistScan {
  using Real = typename V::Real;
  using Reg = typename V::Reg;
  static constexpr Real kInf = std::numeric_limits<Real>::infinity();
  Reg best = V::set1(kInf);
  Reg gamma = V::set1(Real(0));
  Reg index = V::set1(Real(0));
  void offer(Reg g, Reg i) {
    const auto take = V::le(V::abs(g), best);
    best = V::select(take, V::abs(g), best);
    gamma = V::select(take, g, gamma);
    index = V::select(take, i, index);
  }
  // gamma_0 is NaN: twist 0, whose gamma is that NaN.
  void finish(Reg g0) {
    const auto ordered = V::eq(g0, g0);
    gamma = V::select(ordered, gamma, g0);
    index = V::select(ordered, index, V::set1(Real(0)));
  }
};

template <typename V, typename Real = typename V::Real>
void twisted_ldl_vec(index_t n, const Real* d, const Real* l, const Real* ld, const Real* dll,
                     const Real* x, index_t m, Real* lplus, Real* umult, index_t ldw,
                     Real* gamma, index_t* twist) {
  using Reg = typename V::Reg;
  constexpr index_t L = V::kLanes;
  for (index_t j0 = 0; j0 < m; j0 += 2 * L) {
    const index_t w = m - j0 < 2 * L ? m - j0 : 2 * L;
    // A partial pass repeats its last shift in the spare lanes, whose
    // columns of lplus and umult are the caller's scratch.
    alignas(64) Real xb[2 * L];
    for (index_t j = 0; j < 2 * L; ++j) xb[j] = x[j0 + (j < w ? j : w - 1)];
    const Reg x0 = V::load(xb), x1 = V::load(xb + L);
    Reg s0 = V::neg(x0), s1 = V::neg(x1);
    for (index_t i = 0; i + 1 < n; ++i) {
      const Reg di = V::set1(d[i]), li = V::set1(l[i]), ldi = V::set1(ld[i]);
      const Reg lp0 = V::div(ldi, twisted_guard<V>(V::add(di, s0)));
      const Reg lp1 = V::div(ldi, twisted_guard<V>(V::add(di, s1)));
      Real* lrow = lplus + i * ldw + j0;
      Real* urow = umult + i * ldw + j0;
      V::store(lrow, lp0);
      V::store(lrow + L, lp1);
      // s_i waits in umult's row until the progressive pass reaches i.
      V::store(urow, s0);
      V::store(urow + L, s1);
      s0 = V::sub(V::mul(V::mul(lp0, li), s0), x0);
      s1 = V::sub(V::mul(V::mul(lp1, li), s1), x1);
    }
    const Reg dn = V::set1(d[n - 1]);
    Reg p0 = V::sub(dn, x0), p1 = V::sub(dn, x1);
    Reg g0 = V::add(V::add(s0, p0), x0), g1 = V::add(V::add(s1, p1), x1);
    TwistScan<V> t0, t1;
    t0.offer(g0, V::set1(Real(n - 1)));
    t1.offer(g1, V::set1(Real(n - 1)));
    for (index_t i = n - 2; i >= 0; --i) {
      const Reg di = V::set1(d[i]), ldi = V::set1(ld[i]), dlli = V::set1(dll[i]);
      const Reg dm0 = twisted_guard<V>(V::add(dlli, p0));
      const Reg dm1 = twisted_guard<V>(V::add(dlli, p1));
      Real* urow = umult + i * ldw + j0;
      const Reg si0 = V::load(urow), si1 = V::load(urow + L);
      V::store(urow, V::div(ldi, dm0));
      V::store(urow + L, V::div(ldi, dm1));
      p0 = V::sub(V::div(V::mul(p0, di), dm0), x0);
      p1 = V::sub(V::div(V::mul(p1, di), dm1), x1);
      g0 = V::add(V::add(si0, p0), x0);
      g1 = V::add(V::add(si1, p1), x1);
      const Reg ii = V::set1(Real(i));
      t0.offer(g0, ii);
      t1.offer(g1, ii);
    }
    t0.finish(g0);
    t1.finish(g1);
    // Indices travel as Real: exact, since V's n^2 entries bound n far
    // below 2^24.
    alignas(64) Real gb[2 * L], kb[2 * L];
    V::store(gb, t0.gamma);
    V::store(gb + L, t1.gamma);
    V::store(kb, t0.index);
    V::store(kb + L, t1.index);
    for (index_t j = 0; j < w; ++j) {
      gamma[j0 + j] = gb[j];
      twist[j0 + j] = static_cast<index_t>(kb[j]);
    }
  }
}

}  // namespace dnc::blas::simd
