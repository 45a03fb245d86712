// SIMD kernel layer: one table of function pointers per (instruction set,
// precision) pair, selected once at runtime. Both precisions dispatch over
// the same three tiers: scalar, avx2 and avx512.
//
// Layout of the layer:
//   kernels_scalar.cpp   portable C++ implementations, templated on Real
//                        (always built; also the reference the SIMD paths
//                        are tested against)
//   vec_avx2.hpp,        one vector interface V per (ISA, precision): F64x4,
//   vec_avx512.hpp       F32x8 and the xmm F32x4; F64x8 and F32x16. Every
//                        intrinsic of the layer is spelt there, apart from
//                        pack_b_avx2's 4x4 transpose
//   kernel_body.hpp      the level-1, laed4_sums and packing loops and the
//                        one GEMM microkernel template, written over V
//   kernels_avx2.cpp     the AVX2 + FMA tables: those bodies over the AVX2
//                        interfaces (8x4 and 4x8 tiles in both precisions)
//                        and the transposing fp64 pack_b (built when the
//                        toolchain targets x86 and DNC_ENABLE_SIMD is ON,
//                        compiled with -mavx2 -mfma for this file only)
//   kernels_avx512.cpp   the AVX-512 tables: the AVX2 tables with the main
//                        microkernel (16x8 fp64, 32x8 fp32), its tile shape
//                        and the two LDL^T entries replaced; level-1,
//                        laed4_sums, packing and the 4x8 kernel are
//                        division- or memory-bound and gain nothing from
//                        zmm width
//   sturm_scalar.cpp,    the LDL^T entries, Sturm counts (sturm_counts_ldl)
//   sturm_avx2.cpp,      and twisted factorizations (twisted_ldl): the
//   sturm_avx512.cpp     scalar references and the sturm_body.hpp loops
//                        over the AVX2 and AVX-512 interfaces; compiled
//                        with -ffp-contract=off so every table returns
//                        identical counts and factorizations (see the
//                        note below)
//   dispatch.cpp         runtime selection: hardware probe (cpuid) clamped
//                        by the DNC_SIMD env var
//                        ("scalar"|"avx2"|"avx512"), one active table per
//                        precision
//
// Each table carries its main GEMM tile shape (mr x nr): 8x4 for scalar
// and AVX2, 16x8 (fp64) and 32x8 (fp32) for AVX-512. The one blocked
// loop nest in gemm.cpp reads the shape from the table, so a new tile is a
// new table entry, not a new GEMM driver.
//
// Callers (gemm.cpp, level1.cpp, lapack/laed4.cpp, mrrr/ldl.cpp,
// mrrr/getvec.cpp) fetch the active table with kernels_t<Real>() and call
// through it; the indirection is one predictable load per kernel
// invocation, negligible against the vector loops behind it. Keeping every
// ISA's table linked in (rather than ifdef-ing call sites) is what lets one
// binary run the scalar, AVX2 and AVX-512 paths -- tests compare them pairwise in-process, and CI re-runs
// the suites under DNC_SIMD=scalar and DNC_SIMD=avx2.
//
// Precision note: the AVX2 float kernels run 8 lanes per vector -- twice
// the fp64 lane count, the core of the fp32 fast path.
//
// Numerical note: the AVX2 kernels use FMA and block-wise summation, so
// dot/sumsq/GEMM/laed4 results may differ from the scalar path by a few
// ulps (usually they are *more* accurate -- fewer roundings). Tests and
// callers must not expect bitwise equality across tables -- with one
// exception: every vector microkernel is one template, which gives each C
// element the same FMA chains (one per kc block in fp64; the even/odd-k
// pair in fp32) and the same write-back whatever the tile, so GEMM -- and
// with it the whole D&C solve -- is bitwise identical under avx2 and
// avx512.
// The LDL^T kernels are the stronger exception: no FMA, no reassociation,
// one lane per shift running the scalar recurrences' exact operations, so
// every table returns the same Sturm counts and the same twisted
// factorizations, and MRRR's bisection takes the same decisions, and
// computes the same eigenvectors, under every table.
#pragma once

#include "common/cpu_features.hpp"
#include "common/matrix.hpp"

namespace dnc::blas::simd {

/// GEMM microkernel over packed tiles. `ap` holds kb steps of MR contiguous
/// A-rows, `bp` kb steps of NR contiguous B-columns (zero-padded partial
/// tiles, see pack_a/pack_b). Computes acc = sum_p ap_p * bp_p^T and updates
/// the mr x nr visible corner of C: C = alpha*acc + beta*C (beta == 0 must
/// overwrite, never read, C -- callers rely on it to clear NaNs).
template <typename Real>
using MicrokernelFnT = void (*)(index_t kb, const Real* ap, const Real* bp, Real alpha,
                                Real beta, Real* c, index_t ldc, index_t mr, index_t nr);

/// Packs a tile-rows slice of op(A) (rows [i0,i0+mr), cols [p0,p0+kb)) into
/// microkernel order: for each p, MR contiguous row entries, zero-padded
/// when mr < MR. `trans` selects op(A) = A^T. Any MR >= mr is allowed;
/// exactly MR * kb entries of dst are written.
template <typename Real>
using PackAFnT = void (*)(const Real* a, index_t lda, bool trans, index_t i0, index_t mr,
                          index_t p0, index_t kb, Real* dst, index_t MR);

/// Packs a tile-cols slice of op(B) (rows [p0,p0+kb), cols [j0,j0+nr)) into
/// microkernel order: for each p, NR contiguous column entries, zero-padded.
/// Any NR >= nr is allowed, not only the tile widths; exactly NR * kb
/// entries of dst are written.
template <typename Real>
using PackBFnT = void (*)(const Real* b, index_t ldb, bool trans, index_t p0, index_t kb,
                          index_t j0, index_t nr, Real* dst, index_t NR);

/// Secular-equation pole sums, the inner loop of every LAED4 task: for
/// j in [j0, j1) with t_j = z_j / (delta0_j - tau) accumulates
///   *w    += sum rho * z_j * t_j        (f contribution)
///   *dsum += sum rho * t_j^2            (per-side derivative)
///   *asum += sum |rho * z_j * t_j|      (error-bound magnitude sum)
template <typename Real>
using Laed4SumsFnT = void (*)(index_t j0, index_t j1, const Real* delta0, const Real* z,
                              Real rho, Real tau, Real* w, Real* dsum, Real* asum);

/// Sturm counts of one L D L^T representation at m shifts: counts[j] is
/// the number of negative pivots of L D L^T - x[j] I (the number of
/// eigenvalues below x[j]), by the differential stationary recurrence of
/// mrrr::sturm_count_ldl. d has n entries, l and ld = l .* d (precomputed
/// by the caller) n - 1. Every table returns the scalar table's counts
/// exactly: the vector entries run the same IEEE operations lane by lane.
template <typename Real>
using SturmCountsLdlFnT = void (*)(index_t n, const Real* d, const Real* l, const Real* ld,
                                   const Real* x, index_t m, index_t* counts);

/// Twisted factorizations of one L D L^T at m shifts, the O(n) core of
/// mrrr::twisted_eigenvectors (dlar1v): for shift x[j], the differential
/// stationary transform of L D L^T - x[j] I top-down (multipliers lplus),
/// the differential progressive transform bottom-up (multipliers umult),
/// and the twist: the first index k with the least |gamma_k| =
/// |s_k + p_k + x[j]|, and gamma_k itself. d has n entries; l, ld = l .* d
/// and dll = ld .* l (precomputed by the caller) n - 1. lplus and umult
/// are (n - 1) x ldw arrays, entry (i, j) at [i * ldw + j], with ldw at
/// least m rounded up to sturm_lanes: a pass may write the columns past m,
/// which are scratch. Every table returns the scalar table's bytes.
template <typename Real>
using TwistedLdlFnT = void (*)(index_t n, const Real* d, const Real* l, const Real* ld,
                               const Real* dll, const Real* x, index_t m, Real* lplus,
                               Real* umult, index_t ldw, Real* gamma, index_t* twist);

template <typename Real>
struct KernelTableT {
  SimdIsa isa;
  const char* name;

  // --- level-3: packed GEMM microkernels and packing -------------------
  MicrokernelFnT<Real> mk;     ///< main tile, MR=mr x NR=nr (the default)
  index_t mr;                  ///< rows of the main tile
  index_t nr;                  ///< columns of the main tile
  MicrokernelFnT<Real> mk4x8;  ///< MR=4, NR=8 (short-wide C panels)
  PackAFnT<Real> pack_a;
  PackBFnT<Real> pack_b;
  /// Problems with m*n*k below this volume skip packing and run the
  /// reference triple loop; the SIMD tables set it lower because their
  /// packed path amortises sooner.
  index_t gemm_small_volume;

  // --- level-1 (contiguous; strided variants stay scalar) --------------
  void (*axpy)(index_t n, Real alpha, const Real* x, Real* y);
  Real (*dot)(index_t n, const Real* x, const Real* y);
  void (*scal)(index_t n, Real alpha, Real* x);
  void (*copy)(index_t n, const Real* x, Real* y);
  void (*swap)(index_t n, Real* x, Real* y);
  void (*rot)(index_t n, Real* x, Real* y, Real c, Real s);
  /// Plain sum of squares (no overflow scaling) -- the nrm2 fast path;
  /// level1.cpp falls back to the scaled scalar loop outside safe range.
  Real (*sumsq)(index_t n, const Real* x);

  // --- lapack/laed4 ----------------------------------------------------
  Laed4SumsFnT<Real> laed4_sums;

  // --- mrrr/ldl --------------------------------------------------------
  SturmCountsLdlFnT<Real> sturm_counts_ldl;
  TwistedLdlFnT<Real> twisted_ldl;
  /// Shifts one sturm_counts_ldl or twisted_ldl pass handles at full speed
  /// (two vectors' worth for the SIMD tables, 1 for scalar): the width of
  /// the lane pool in mrrr::refine_ldl.
  index_t sturm_lanes;
};

/// Historical fp64 spellings, used by the double-typed call sites.
using KernelTable = KernelTableT<double>;
using MicrokernelFn = MicrokernelFnT<double>;
using PackAFn = PackAFnT<double>;
using PackBFn = PackBFnT<double>;
using Laed4SumsFn = Laed4SumsFnT<double>;

/// The active table for a precision: the highest table at or below the
/// hardware probe clamped by DNC_SIMD (read once, on first use). Safe to
/// call from any thread. Instantiated for double and float.
template <typename Real>
const KernelTableT<Real>& kernels_t() noexcept;

/// fp64 shorthand (the historical entry point).
inline const KernelTable& kernels() noexcept { return kernels_t<double>(); }

/// Active instruction set (== kernels().isa, which is also the float
/// table's ISA).
SimdIsa active_isa() noexcept;

/// Table for a specific level, or nullptr when that level was not compiled
/// in or the hardware cannot run it. kernels_for_t<Real>(Scalar) never
/// fails. Instantiated for double and float.
template <typename Real>
const KernelTableT<Real>* kernels_for_t(SimdIsa isa) noexcept;

/// fp64 shorthand.
inline const KernelTable* kernels_for(SimdIsa isa) noexcept {
  return kernels_for_t<double>(isa);
}

/// Forces the active tables (both precisions) for the current process --
/// used by tests and benchmarks to compare paths in-process. Clamped like
/// DNC_SIMD: a level this binary or host lacks falls to the next lower
/// table that is present. Restores the previous tables on destruction.
/// Not for concurrent use from multiple threads (tests/benches are
/// single-threaded at override points).
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(SimdIsa isa) noexcept;
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  const KernelTableT<double>* saved_f64_;
  const KernelTableT<float>* saved_f32_;
};

/// The scalar tables (always present; the testing reference).
extern const KernelTableT<double> kScalarTable;
extern const KernelTableT<float> kScalarTableF32;
#if defined(DNC_HAVE_AVX2)
extern const KernelTableT<double> kAvx2Table;
extern const KernelTableT<float> kAvx2TableF32;
#endif
/// The Sturm-count and twisted-factorization entries live in their own
/// files (sturm_*.cpp), compiled with -ffp-contract=off: a multiply-subtract
/// the compiler fused into an FMA would round once instead of twice and
/// change counts and vectors. The tables take their addresses.
template <typename Real>
void sturm_counts_ldl_scalar(index_t n, const Real* d, const Real* l, const Real* ld,
                             const Real* x, index_t m, index_t* counts);
template <typename Real>
void twisted_ldl_scalar(index_t n, const Real* d, const Real* l, const Real* ld, const Real* dll,
                        const Real* x, index_t m, Real* lplus, Real* umult, index_t ldw,
                        Real* gamma, index_t* twist);
#if defined(DNC_HAVE_AVX2)
template <typename Real>
void sturm_counts_ldl_avx2(index_t n, const Real* d, const Real* l, const Real* ld,
                           const Real* x, index_t m, index_t* counts);
template <typename Real>
void twisted_ldl_avx2(index_t n, const Real* d, const Real* l, const Real* ld, const Real* dll,
                      const Real* x, index_t m, Real* lplus, Real* umult, index_t ldw,
                      Real* gamma, index_t* twist);
#endif
#if defined(DNC_HAVE_AVX512)
template <typename Real>
void sturm_counts_ldl_avx512(index_t n, const Real* d, const Real* l, const Real* ld,
                             const Real* x, index_t m, index_t* counts);
template <typename Real>
void twisted_ldl_avx512(index_t n, const Real* d, const Real* l, const Real* ld,
                        const Real* dll, const Real* x, index_t m, Real* lplus, Real* umult,
                        index_t ldw, Real* gamma, index_t* twist);
#endif

#if defined(DNC_HAVE_AVX512)
/// The AVX-512 tables: copies of the AVX2 tables with the main microkernel
/// (mk, mr, nr) replaced, built on first use (a function-local static, so
/// no dynamic initialisation order between translation units is involved).
template <typename Real>
const KernelTableT<Real>& avx512_table() noexcept;
#endif

}  // namespace dnc::blas::simd
