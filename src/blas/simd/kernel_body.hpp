// Bodies of the vector level-1, LAED4-sum and packing kernels, written once
// over a small per-ISA vector interface V so the fp64 and fp32 AVX2 tables
// (kernels_avx2.cpp) share one copy of each loop; the AVX-512 tables reuse
// those entries. The packing loops (pack_a_loop, pack_b_loop) also serve
// the scalar tables and the vector packers' partial tiles.
//
// Every loop runs two vectors per step where a second accumulator or
// store stream helps (axpy, dot, sumsq), then one vector per step, then a
// scalar tail; dot and sumsq add their two accumulators before the
// horizontal sum.
//
// The interface V supplies: Real, Reg and kLanes; zero, set1, load and
// store; add, sub, mul, div, fmadd(a, b, c) = a*b + c, fmsub(a, b, c) =
// a*b - c and abs on Reg; hsum(Reg) -> Real; and copy_half(src, dst),
// which copies kLanes / 2 contiguous entries. The packing loops read only
// V::Real.
//
// Each V must live in an anonymous namespace: an instantiation keyed on a
// V with external linkage would be a weak symbol in every object that
// makes it, and the linker could keep a copy built with wider -m flags
// than the caller's (the blas_archive_unique_symbols ctest guards this).
#pragma once

#include <cmath>

#include "common/matrix.hpp"

namespace dnc::blas::simd {

/// Packs rows [i0, i0+mr) x cols [p0, p0+kb) of op(A) into MR-row slivers,
/// zero-padded when mr < MR (see PackAFnT).
template <typename V, typename Real = typename V::Real>
void pack_a_loop(const Real* a, index_t lda, bool trans, index_t i0, index_t mr, index_t p0,
                 index_t kb, Real* dst, index_t MR) {
  if (!trans && mr == MR) {
    for (index_t p = 0; p < kb; ++p) {
      const Real* src = a + i0 + (p0 + p) * lda;
      for (index_t i = 0; i < MR; ++i) dst[p * MR + i] = src[i];
    }
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t i = 0; i < MR; ++i)
      dst[p * MR + i] =
          (i < mr) ? (trans ? a[(p0 + p) + (i0 + i) * lda] : a[(i0 + i) + (p0 + p) * lda])
                   : Real(0);
  }
}

/// Packs rows [p0, p0+kb) x cols [j0, j0+nr) of op(B) into NR-column
/// slivers, zero-padded when nr < NR (see PackBFnT).
template <typename V, typename Real = typename V::Real>
void pack_b_loop(const Real* b, index_t ldb, bool trans, index_t p0, index_t kb, index_t j0,
                 index_t nr, Real* dst, index_t NR) {
  if (!trans && nr == NR) {
    for (index_t p = 0; p < kb; ++p)
      for (index_t j = 0; j < NR; ++j) dst[p * NR + j] = b[(p0 + p) + (j0 + j) * ldb];
    return;
  }
  for (index_t p = 0; p < kb; ++p) {
    for (index_t j = 0; j < NR; ++j)
      dst[p * NR + j] =
          (j < nr) ? (trans ? b[(j0 + j) + (p0 + p) * ldb] : b[(p0 + p) + (j0 + j) * ldb])
                   : Real(0);
  }
}

/// pack_a with whole-vector copies of full untransposed slivers: any tile
/// height that is a whole number of vectors, or half of one.
template <typename V, typename Real = typename V::Real>
void pack_a_vec(const Real* a, index_t lda, bool trans, index_t i0, index_t mr, index_t p0,
                index_t kb, Real* dst, index_t MR) {
  constexpr index_t L = V::kLanes;
  if (!trans && mr == MR && MR % L == 0) {
    const Real* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += MR)
      for (index_t i = 0; i < MR; i += L) V::store(dst + i, V::load(src + i));
    return;
  }
  if (!trans && mr == MR && 2 * MR == L) {
    const Real* src = a + i0 + p0 * lda;
    for (index_t p = 0; p < kb; ++p, src += lda, dst += MR) V::copy_half(src, dst);
    return;
  }
  pack_a_loop<V>(a, lda, trans, i0, mr, p0, kb, dst, MR);
}

template <typename V, typename Real = typename V::Real>
void axpy_vec(index_t n, Real alpha, const Real* x, Real* y) {
  constexpr index_t L = V::kLanes;
  const auto va = V::set1(alpha);
  index_t i = 0;
  for (; i + 2 * L <= n; i += 2 * L) {
    V::store(y + i, V::fmadd(va, V::load(x + i), V::load(y + i)));
    V::store(y + i + L, V::fmadd(va, V::load(x + i + L), V::load(y + i + L)));
  }
  for (; i + L <= n; i += L) V::store(y + i, V::fmadd(va, V::load(x + i), V::load(y + i)));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <typename V, typename Real = typename V::Real>
Real dot_vec(index_t n, const Real* x, const Real* y) {
  constexpr index_t L = V::kLanes;
  auto s0 = V::zero(), s1 = V::zero();
  index_t i = 0;
  for (; i + 2 * L <= n; i += 2 * L) {
    s0 = V::fmadd(V::load(x + i), V::load(y + i), s0);
    s1 = V::fmadd(V::load(x + i + L), V::load(y + i + L), s1);
  }
  for (; i + L <= n; i += L) s0 = V::fmadd(V::load(x + i), V::load(y + i), s0);
  Real s = V::hsum(V::add(s0, s1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <typename V, typename Real = typename V::Real>
void scal_vec(index_t n, Real alpha, Real* x) {
  constexpr index_t L = V::kLanes;
  const auto va = V::set1(alpha);
  index_t i = 0;
  for (; i + L <= n; i += L) V::store(x + i, V::mul(va, V::load(x + i)));
  for (; i < n; ++i) x[i] *= alpha;
}

template <typename V, typename Real = typename V::Real>
void copy_vec(index_t n, const Real* x, Real* y) {
  constexpr index_t L = V::kLanes;
  index_t i = 0;
  for (; i + L <= n; i += L) V::store(y + i, V::load(x + i));
  for (; i < n; ++i) y[i] = x[i];
}

template <typename V, typename Real = typename V::Real>
void swap_vec(index_t n, Real* x, Real* y) {
  constexpr index_t L = V::kLanes;
  index_t i = 0;
  for (; i + L <= n; i += L) {
    const auto vx = V::load(x + i);
    const auto vy = V::load(y + i);
    V::store(x + i, vy);
    V::store(y + i, vx);
  }
  for (; i < n; ++i) {
    const Real t = x[i];
    x[i] = y[i];
    y[i] = t;
  }
}

template <typename V, typename Real = typename V::Real>
void rot_vec(index_t n, Real* x, Real* y, Real c, Real s) {
  constexpr index_t L = V::kLanes;
  const auto vc = V::set1(c);
  const auto vs = V::set1(s);
  index_t i = 0;
  for (; i + L <= n; i += L) {
    const auto vx = V::load(x + i);
    const auto vy = V::load(y + i);
    V::store(x + i, V::fmadd(vc, vx, V::mul(vs, vy)));
    V::store(y + i, V::fmsub(vc, vy, V::mul(vs, vx)));
  }
  for (; i < n; ++i) {
    const Real xi = x[i];
    const Real yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

template <typename V, typename Real = typename V::Real>
Real sumsq_vec(index_t n, const Real* x) {
  constexpr index_t L = V::kLanes;
  auto s0 = V::zero(), s1 = V::zero();
  index_t i = 0;
  for (; i + 2 * L <= n; i += 2 * L) {
    const auto v0 = V::load(x + i);
    const auto v1 = V::load(x + i + L);
    s0 = V::fmadd(v0, v0, s0);
    s1 = V::fmadd(v1, v1, s1);
  }
  for (; i + L <= n; i += L) {
    const auto v = V::load(x + i);
    s0 = V::fmadd(v, v, s0);
  }
  Real s = V::hsum(V::add(s0, s1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

template <typename V, typename Real = typename V::Real>
void laed4_sums_vec(index_t j0, index_t j1, const Real* delta0, const Real* z, Real rho,
                    Real tau, Real* w, Real* dsum, Real* asum) {
  constexpr index_t L = V::kLanes;
  const auto vtau = V::set1(tau);
  const auto vrho = V::set1(rho);
  auto vw = V::zero(), vd = V::zero(), va = V::zero();
  index_t j = j0;
  for (; j + L <= j1; j += L) {
    const auto dj = V::sub(V::load(delta0 + j), vtau);
    const auto zj = V::load(z + j);
    const auto t = V::div(zj, dj);
    const auto term = V::mul(vrho, V::mul(zj, t));
    vw = V::add(vw, term);
    vd = V::fmadd(vrho, V::mul(t, t), vd);
    va = V::add(va, V::abs(term));
  }
  Real fw = V::hsum(vw), fd = V::hsum(vd), fa = V::hsum(va);
  for (; j < j1; ++j) {
    const Real dj = delta0[j] - tau;
    const Real t = z[j] / dj;
    const Real term = rho * z[j] * t;
    fw += term;
    fd += rho * t * t;
    fa += std::fabs(term);
  }
  *w += fw;
  *dsum += fd;
  *asum += fa;
}

}  // namespace dnc::blas::simd
