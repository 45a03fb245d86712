#include "blas/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "blas/simd/kernels.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "obs/counters.hpp"

namespace dnc::blas {
namespace {

// Thread-local packing workspaces: each thread (main, or a runtime worker
// executing an UpdateVect task or a parallel_gemm slab subtask) reuses one
// aligned arena across all its GEMM calls, so
// the thousands of small panel products in a merge tree never touch malloc
// after warm-up. Capacity is tracked in bytes, so the same two arenas serve
// the double and float instantiations.
thread_local AlignedBuffer tls_apack;
thread_local AlignedBuffer tls_bpack;

}  // namespace

template <typename Real>
void gemm_reference(Trans transa, Trans transb, index_t m, index_t n, index_t k, Real alpha,
                    const Real* a, index_t lda, const Real* b, index_t ldb, Real beta,
                    Real* c, index_t ldc) {
  auto at = [](const Real* x, index_t ldx, Trans t, index_t i, index_t j) {
    return t == Trans::No ? x[i + j * ldx] : x[j + i * ldx];
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      Real s = Real(0);
      for (index_t p = 0; p < k; ++p) s += at(a, lda, transa, i, p) * at(b, ldb, transb, p, j);
      Real& cij = c[i + j * ldc];
      cij = alpha * s + (beta == Real(0) ? Real(0) : beta * cij);
    }
  }
}

template <typename Real>
void gemm(Trans transa, Trans transb, index_t m, index_t n, index_t k, Real alpha,
          const Real* a, index_t lda, const Real* b, index_t ldb, Real beta, Real* c,
          index_t ldc) {
  if (m <= 0 || n <= 0) return;
  DNC_ASSERT(ldc >= m);
  // Quick returns and the degenerate inner dimension reduce to a scale of C.
  if (k <= 0 || alpha == Real(0)) {
    for (index_t j = 0; j < n; ++j) {
      Real* col = c + j * ldc;
      if (beta == Real(0))
        std::memset(col, 0, static_cast<std::size_t>(m) * sizeof(Real));
      else if (beta != Real(1))
        for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
    return;
  }

  obs::bump(obs::kGemmCalls);
  obs::bump(obs::kGemmFlops, 2ull * static_cast<std::uint64_t>(m) * n * k);

  const simd::KernelTableT<Real>& kt = simd::kernels_t<Real>();

  // Small problems are served by the reference loop: the packing overhead
  // dominates below roughly the microtile volume (lower for the SIMD
  // tables, whose packed path amortises sooner).
  if (m * n * k < kt.gemm_small_volume) {
    gemm_reference(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }

  // Microtile shape: the table's main tile (8x4 up to AVX2, 16x8 / 32x8
  // for AVX-512); short-wide products (m a sliver, n broad -- e.g. the
  // tail panels of a heavily deflated UpdateVect) map better onto 4x8.
  index_t MR = kt.mr, NR = kt.nr;
  simd::MicrokernelFnT<Real> mk = kt.mk;
  if (m <= 4 && n >= 8) {
    MR = 4;
    NR = 8;
    mk = kt.mk4x8;
  }

  const bool ta = (transa == Trans::Yes);
  const bool tb = (transb == Trans::Yes);

  const GemmBlocking blk;
  const index_t mc = std::min(blk.mc, m);
  const index_t kcap = std::min(blk.kc, k);
  const index_t ncap = std::min(blk.nc, n);

  Real* apack =
      tls_apack.reserve<Real>(static_cast<std::size_t>(((mc + MR - 1) / MR) * MR) * kcap);
  Real* bpack =
      tls_bpack.reserve<Real>(static_cast<std::size_t>(((ncap + NR - 1) / NR) * NR) * kcap);

  std::uint64_t packed_elems = 0;
  for (index_t jc = 0; jc < n; jc += ncap) {
    const index_t nb = std::min(ncap, n - jc);
    for (index_t pc = 0; pc < k; pc += kcap) {
      const index_t kb = std::min(kcap, k - pc);
      const Real beta_eff = (pc == 0) ? beta : Real(1);
      // Pack the B panel once per (jc, pc).
      const index_t ntiles = (nb + NR - 1) / NR;
      for (index_t jt = 0; jt < ntiles; ++jt) {
        const index_t j0 = jc + jt * NR;
        kt.pack_b(b, ldb, tb, pc, kb, j0, std::min(NR, n - j0), bpack + jt * NR * kb, NR);
      }
      packed_elems += static_cast<std::uint64_t>(ntiles) * NR * kb;
      for (index_t ic = 0; ic < m; ic += mc) {
        const index_t mb = std::min(mc, m - ic);
        const index_t mtiles = (mb + MR - 1) / MR;
        for (index_t it = 0; it < mtiles; ++it) {
          const index_t i0 = ic + it * MR;
          kt.pack_a(a, lda, ta, i0, std::min(MR, m - i0), pc, kb, apack + it * MR * kb, MR);
        }
        packed_elems += static_cast<std::uint64_t>(mtiles) * MR * kb;
        // Macro loop over microtiles.
        for (index_t jt = 0; jt < ntiles; ++jt) {
          const index_t j0 = jc + jt * NR;
          const index_t nr = std::min(NR, n - j0);
          for (index_t it = 0; it < mtiles; ++it) {
            const index_t i0 = ic + it * MR;
            const index_t mr = std::min(MR, m - i0);
            mk(kb, apack + it * MR * kb, bpack + jt * NR * kb, alpha, beta_eff,
               c + i0 + j0 * ldc, ldc, mr, nr);
          }
        }
      }
    }
  }
  // Byte accounting is per-precision: a float panel moves half the memory.
  obs::bump(obs::kGemmPackedBytes, packed_elems * sizeof(Real));
}

#define DNC_INSTANTIATE_GEMM(Real)                                                          \
  template void gemm<Real>(Trans, Trans, index_t, index_t, index_t, Real, const Real*,      \
                           index_t, const Real*, index_t, Real, Real*, index_t);            \
  template void gemm_reference<Real>(Trans, Trans, index_t, index_t, index_t, Real,         \
                                     const Real*, index_t, const Real*, index_t, Real,      \
                                     Real*, index_t)

DNC_INSTANTIATE_GEMM(double);
DNC_INSTANTIATE_GEMM(float);

#undef DNC_INSTANTIATE_GEMM

}  // namespace dnc::blas
