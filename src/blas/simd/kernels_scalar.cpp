// Portable C++ kernel tables: the fallback on non-x86 targets, the
// DNC_SIMD=scalar path, and the reference every SIMD table is tested
// against. Everything is templated on the element type Real and
// instantiated for double and float; the GEMM microkernel is the seed's
// register-blocked loop (written so GCC can auto-vectorize it with the
// baseline ISA), hoisted here so scalar and SIMD paths share the
// packing/blocking driver. The packing entries are kernel_body.hpp's
// loops, which the vector packers also fall back to.
#include <cmath>

#include "blas/simd/kernel_body.hpp"
#include "blas/simd/kernels.hpp"

namespace dnc::blas::simd {
namespace {

// The packing loops of kernel_body.hpp read only V::Real.
template <typename R>
struct Scalar {
  using Real = R;
};

// MR x NR register microkernel over packed panels; acc kept in a local
// array so the compiler maps it to registers.
template <typename Real, index_t MR, index_t NR>
void microkernel(index_t kb, const Real* ap, const Real* bp, Real alpha, Real beta, Real* c,
                 index_t ldc, index_t mr, index_t nr) {
  Real acc[MR][NR];
  for (index_t i = 0; i < MR; ++i)
    for (index_t j = 0; j < NR; ++j) acc[i][j] = Real(0);
  for (index_t p = 0; p < kb; ++p) {
    const Real* arow = ap + p * MR;
    const Real* brow = bp + p * NR;
    for (index_t j = 0; j < NR; ++j) {
      const Real bv = brow[j];
      for (index_t i = 0; i < MR; ++i) acc[i][j] += arow[i] * bv;
    }
  }
  for (index_t j = 0; j < nr; ++j) {
    Real* col = c + j * ldc;
    if (beta == Real(0)) {
      for (index_t i = 0; i < mr; ++i) col[i] = alpha * acc[i][j];
    } else if (beta == Real(1)) {
      for (index_t i = 0; i < mr; ++i) col[i] += alpha * acc[i][j];
    } else {
      for (index_t i = 0; i < mr; ++i) col[i] = alpha * acc[i][j] + beta * col[i];
    }
  }
}

template <typename Real>
void axpy_scalar(index_t n, Real alpha, const Real* x, Real* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename Real>
Real dot_scalar(index_t n, const Real* x, const Real* y) {
  Real s = Real(0);
  for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <typename Real>
void scal_scalar(index_t n, Real alpha, Real* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename Real>
void copy_scalar(index_t n, const Real* x, Real* y) {
  for (index_t i = 0; i < n; ++i) y[i] = x[i];
}

template <typename Real>
void swap_scalar(index_t n, Real* x, Real* y) {
  for (index_t i = 0; i < n; ++i) {
    const Real t = x[i];
    x[i] = y[i];
    y[i] = t;
  }
}

template <typename Real>
void rot_scalar(index_t n, Real* x, Real* y, Real c, Real s) {
  for (index_t i = 0; i < n; ++i) {
    const Real xi = x[i];
    const Real yi = y[i];
    x[i] = c * xi + s * yi;
    y[i] = c * yi - s * xi;
  }
}

template <typename Real>
Real sumsq_scalar(index_t n, const Real* x) {
  Real s = Real(0);
  for (index_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

template <typename Real>
void laed4_sums_scalar(index_t j0, index_t j1, const Real* delta0, const Real* z, Real rho,
                       Real tau, Real* w, Real* dsum, Real* asum) {
  Real fw = Real(0), fd = Real(0), fa = Real(0);
  for (index_t j = j0; j < j1; ++j) {
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

}  // namespace

const KernelTableT<double> kScalarTable = {
    SimdIsa::Scalar,
    "scalar",
    &microkernel<double, 8, 4>,
    8,
    4,
    &microkernel<double, 4, 8>,
    &pack_a_loop<Scalar<double>>,
    &pack_b_loop<Scalar<double>>,
    32 * 32 * 32,
    &axpy_scalar<double>,
    &dot_scalar<double>,
    &scal_scalar<double>,
    &copy_scalar<double>,
    &swap_scalar<double>,
    &rot_scalar<double>,
    &sumsq_scalar<double>,
    &laed4_sums_scalar<double>,
    &sturm_counts_ldl_scalar<double>,
    &twisted_ldl_scalar<double>,
    1,
};

const KernelTableT<float> kScalarTableF32 = {
    SimdIsa::Scalar,
    "scalar",
    &microkernel<float, 8, 4>,
    8,
    4,
    &microkernel<float, 4, 8>,
    &pack_a_loop<Scalar<float>>,
    &pack_b_loop<Scalar<float>>,
    32 * 32 * 32,
    &axpy_scalar<float>,
    &dot_scalar<float>,
    &scal_scalar<float>,
    &copy_scalar<float>,
    &swap_scalar<float>,
    &rot_scalar<float>,
    &sumsq_scalar<float>,
    &laed4_sums_scalar<float>,
    &sturm_counts_ldl_scalar<float>,
    &twisted_ldl_scalar<float>,
    1,
};

}  // namespace dnc::blas::simd
