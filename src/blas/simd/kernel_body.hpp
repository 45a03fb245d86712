// Bodies of the vector kernels, written once over the per-ISA vector
// interfaces V of vec_avx2.hpp and vec_avx512.hpp: the level-1, laed4_sums
// and packing loops of the fp64 and fp32 AVX2 tables (kernels_avx2.cpp;
// the AVX-512 tables reuse those entries) and the one GEMM microkernel
// template behind every vector mk and mk4x8 entry of both ISAs. The
// packing loops (pack_a_loop, pack_b_loop) also serve the scalar tables
// and the vector packers' partial tiles.
//
// Every level-1 loop runs two vectors per step where a second accumulator
// or store stream helps (axpy, dot, sumsq), then one vector per step, then
// a scalar tail; dot and sumsq add their two accumulators before the
// horizontal sum.
//
// From V the bodies read: Real, Reg, kLanes and kRegs (the register file
// size); zero, set1, load and store; add, sub, mul, div, fmadd(a, b, c) =
// a*b + c, fmsub(a, b, c) = a*b - c and abs on Reg; hsum(Reg) -> Real; and
// copy_half(src, dst), which copies kLanes / 2 contiguous entries. The
// packing loops read only V::Real. sturm_body.hpp reads the masks of the
// same interfaces.
//
// Each V must live in an anonymous namespace: an instantiation keyed on a
// V with external linkage would be a weak symbol in every object that
// makes it, and the linker could keep a copy built with wider -m flags
// than the caller's. For the same reason the bodies call no library
// function (std::fabs, std::min, ...), which unoptimised builds emit out
// of line in every object that uses it (the blas_archive_isa_symbols
// ctest guards both).
#pragma once

#include "common/matrix.hpp"

namespace dnc::blas::simd {
namespace {

// Scalar |x| and x*y + z (one rounding) as builtins: std::fabs and std::fma
// would be emitted out of line by unoptimised builds.
inline float abs1(float x) { return __builtin_fabsf(x); }
inline double abs1(double x) { return __builtin_fabs(x); }
inline float fma1(float x, float y, float z) { return __builtin_fmaf(x, y, z); }
inline double fma1(double x, double y, double z) { return __builtin_fma(x, y, z); }

}  // namespace

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
    fa += abs1(term);
  }
  *w += fw;
  *dsum += fd;
  *asum += fa;
}

/// The GEMM microkernel (see MicrokernelFnT) of an MR x NR tile, MR = NV
/// vectors. Each C element sums its k steps in Chains FMA chains, chain q
/// taking the steps p = q (mod Chains), and adds them in order. The chains
/// share one k loop when their accumulators, one step's A vectors and a B
/// broadcast fit the register file, else each takes its own pass and the
/// sum waits in memory; every element gets the same operations either way.
/// The write-back C = alpha*acc + beta*C rounds once at beta == 1 and
/// rounds alpha*acc first at other betas, in full and partial tiles alike;
/// beta == 0 never reads C.
template <typename V, index_t NV, index_t NR, index_t Chains, typename Real = typename V::Real>
void microkernel_vec(index_t kb, const Real* ap, const Real* bp, Real alpha, Real beta,
                     Real* c, index_t ldc, index_t mr, index_t nr) {
  using Reg = typename V::Reg;
  constexpr index_t L = V::kLanes, MR = NV * L, N = NV * NR;  // acc[j * NV + v]
  constexpr index_t K = Chains * N + NV + 1 <= V::kRegs ? Chains : 1;  // chains per pass
  const auto step = [&](index_t p, Reg* s) {
    Reg a[NV];
#pragma GCC unroll 4
    for (index_t v = 0; v < NV; ++v) a[v] = V::load(ap + p * MR + v * L);
#pragma GCC unroll 64
    for (index_t i = 0; i < N; ++i)
      s[i] = V::fmadd(a[i % NV], V::set1(bp[p * NR + i / NV]), s[i]);
  };
  Reg acc[N];
  alignas(64) Real done[N * L];  // the sum of the finished passes
#pragma GCC unroll 4
  for (index_t first = 0; first < Chains; first += K) {
    Reg s[K][N];
#pragma GCC unroll 4
    for (index_t q = 0; q < K; ++q)
#pragma GCC unroll 64
      for (index_t i = 0; i < N; ++i) s[q][i] = V::zero();
    index_t p = first;
    for (; p + K <= kb; p += Chains)
#pragma GCC unroll 4
      for (index_t q = 0; q < K; ++q) step(p + q, s[q]);
#pragma GCC unroll 4
    for (index_t q = 0; q < K; ++q)
      if (p + q < kb) step(p + q, s[q]);
#pragma GCC unroll 64
    for (index_t i = 0; i < N; ++i) {
#pragma GCC unroll 4
      for (index_t q = 1; q < K; ++q) s[0][i] = V::add(s[0][i], s[q][i]);
      if (first > 0) s[0][i] = V::add(V::load(done + i * L), s[0][i]);
      if (first + K < Chains) V::store(done + i * L, s[0][i]);
      acc[i] = s[0][i];
    }
  }
  if (mr == MR) {
    const Reg va = V::set1(alpha);
#pragma GCC unroll 64
    for (index_t i = 0; i < N; ++i) {
      if (i / NV >= nr) continue;
      Real* col = c + i / NV * ldc + i % NV * L;
      Reg r = beta == Real(1) ? V::fmadd(acc[i], va, V::load(col)) : V::mul(acc[i], va);
      if (beta != Real(0) && beta != Real(1)) r = V::fmadd(V::set1(beta), V::load(col), r);
      V::store(col, r);
    }
    return;
  }
  // A partial tile: spill it and finish in scalar code.
  alignas(64) Real t[N * L];
#pragma GCC unroll 64
  for (index_t i = 0; i < N; ++i) V::store(t + i * L, acc[i]);
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) {
      const Real tij = t[i + j * MR];
      Real& cij = c[i + j * ldc];
      cij = beta == Real(1)   ? fma1(tij, alpha, cij)
            : beta == Real(0) ? alpha * tij
                              : fma1(beta, cij, alpha * tij);
    }
}

}  // namespace dnc::blas::simd
