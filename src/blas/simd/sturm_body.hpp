// Body of the vector Sturm-count kernels (sturm_avx2.cpp, sturm_avx512.cpp),
// written once over the per-ISA vector interfaces V of vec_avx2.hpp and
// vec_avx512.hpp, so every table runs the scalar reference's operations
// (sturm_scalar.cpp) in the same order, one lane per shift x:
//
//   dplus = d[i] + s;  count += (dplus < 0);  dplus == 0  ->  -safmin
//   s = ((ld[i] / dplus) * l[i]) * s - x;     s not finite  ->  -x
//
// Two vectors are in flight per pass, so one vector's divide runs while
// the other waits on its own. Include only from files compiled with
// -ffp-contract=off.
//
// From V it reads: Real, Reg, Cnt and kLanes; set1, load, add, sub, mul,
// div and neg on Reg; the masks lt, eq and finite; select(mask, if_true,
// if_false); and zero_cnt, inc(cnt, mask) and store_cnt(out, cnt), which
// writes the kLanes per-lane counts as index_t. Like kernel_body.hpp, it
// calls no library function (see there).
#pragma once

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

}  // namespace dnc::blas::simd
