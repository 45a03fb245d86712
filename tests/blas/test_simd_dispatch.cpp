// Property tests for the SIMD kernel layer: every table the binary carries,
// in both precisions (scalar always; AVX2/AVX-512 when compiled in and the
// host supports them), is compared against the scalar reference of its
// precision across remainder shapes
// -- vector kernels live or die on their tail handling, so lengths sweep
// every residue mod the widest vector, and GEMM shapes sweep the residues
// mod each table's own main tile (8x4, 16x8, 32x8) and the 4x8 tile.
#include "blas/simd/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/rng.hpp"

namespace dnc::blas::simd {
namespace {

std::vector<double> randvec(index_t n, std::uint64_t seed) {
  Rng r(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = r.uniform_sym();
  return v;
}

template <typename Real>
std::vector<Real> randvec_t(index_t n, std::uint64_t seed) {
  const auto v = randvec(n, seed);
  return std::vector<Real>(v.begin(), v.end());
}

template <typename Real>
std::vector<const KernelTableT<Real>*> tables_t() {
  std::vector<const KernelTableT<Real>*> t;
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512})
    if (const KernelTableT<Real>* kt = kernels_for_t<Real>(isa)) t.push_back(kt);
  return t;
}

std::vector<const KernelTable*> available_tables() { return tables_t<double>(); }

template <typename Real>
const KernelTableT<Real>* scalar_table_t() {
  return kernels_for_t<Real>(SimdIsa::Scalar);
}

// Straight definition of the microkernel contract over packed MR x kb and
// NR x kb panels: C = alpha * A B^T + beta * C on the mr x nr corner, with
// beta == 0 overwriting C.
void microkernel_reference(index_t kb, const double* ap, const double* bp, index_t MR,
                           index_t NR, double alpha, double beta, double* c, index_t ldc,
                           index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p < kb; ++p) acc += ap[p * MR + i] * bp[p * NR + j];
      double& cij = c[i + j * ldc];
      cij = alpha * acc + (beta == 0.0 ? 0.0 : beta * cij);
    }
}

// Lengths covering every residue mod 8 (the widest unrolled step) plus a
// couple of long ones so the unrolled body actually loops.
const index_t kLens[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                         17, 31, 32, 33, 63, 64, 65, 100, 1000, 1001, 1003, 1007};

TEST(SimdDispatch, ActiveTableIsAvailable) {
  const KernelTable& kt = kernels();
  EXPECT_EQ(kernels_for(kt.isa), &kt);
  EXPECT_EQ(active_isa(), kt.isa);
  EXPECT_STREQ(kt.name, simd_isa_name(kt.isa));
}

TEST(SimdDispatch, ScalarAlwaysPresent) {
  ASSERT_NE(kernels_for(SimdIsa::Scalar), nullptr);
  EXPECT_EQ(kernels_for(SimdIsa::Scalar), &kScalarTable);
}

TEST(SimdDispatch, EnvParsing) {
  SimdIsa isa = SimdIsa::Avx2;
  EXPECT_TRUE(parse_simd_isa("scalar", isa));
  EXPECT_EQ(isa, SimdIsa::Scalar);
  EXPECT_TRUE(parse_simd_isa("off", isa));
  EXPECT_EQ(isa, SimdIsa::Scalar);
  EXPECT_TRUE(parse_simd_isa("avx2", isa));
  EXPECT_EQ(isa, SimdIsa::Avx2);
  EXPECT_TRUE(parse_simd_isa("avx512", isa));
  EXPECT_EQ(isa, SimdIsa::Avx512);
  EXPECT_FALSE(parse_simd_isa("avx512f", isa));
  EXPECT_FALSE(parse_simd_isa("", isa));
  EXPECT_FALSE(parse_simd_isa(nullptr, isa));

  // sse2 names no tier: like any unrecognised value it is not parsed, and
  // DNC_SIMD=sse2 leaves the request at the hardware level.
  EXPECT_FALSE(parse_simd_isa("sse2", isa));
  EXPECT_EQ(isa, SimdIsa::Avx512);
  const char* old = std::getenv("DNC_SIMD");
  const std::string saved = old ? old : "";
  ::setenv("DNC_SIMD", "sse2", 1);
  EXPECT_EQ(requested_simd_isa(), detect_simd_isa());
  if (old)
    ::setenv("DNC_SIMD", saved.c_str(), 1);
  else
    ::unsetenv("DNC_SIMD");
}

TEST(SimdDispatch, DetectIsMonotone) {
  // AVX-512 hardware implies AVX2; the probe must never report an
  // impossible combination, and kernels_for must clamp to it.
  const SimdIsa hw = detect_simd_isa();
  if (kernels_for(SimdIsa::Avx512) != nullptr) {
    EXPECT_GE(hw, SimdIsa::Avx512);
    // The AVX-512 table is built on the AVX2 one, so it needs it present.
    EXPECT_NE(kernels_for(SimdIsa::Avx2), nullptr);
    EXPECT_NE(kernels_for_t<float>(SimdIsa::Avx512), nullptr);
  }
  if (kernels_for(SimdIsa::Avx2) != nullptr) {
    EXPECT_GE(hw, SimdIsa::Avx2);
  }
  for (const KernelTable* kt : available_tables()) EXPECT_LE(kt->isa, hw) << kt->name;
}

TEST(SimdDispatch, ScopedOverrideSwitchesAndRestores) {
  const KernelTable& before = kernels();
  {
    ScopedIsaOverride force(SimdIsa::Scalar);
    EXPECT_EQ(active_isa(), SimdIsa::Scalar);
  }
  EXPECT_EQ(&kernels(), &before);
}

template <typename Real>
const KernelTableT<Real>* next_present_table(SimdIsa cap) {
  for (int level = static_cast<int>(cap); level >= 0; --level)
    if (const KernelTableT<Real>* kt = kernels_for_t<Real>(static_cast<SimdIsa>(level)))
      return kt;
  return nullptr;
}

TEST(SimdDispatch, MissingTierFallsToNextLowerTable) {
  // Requesting a level the binary or host lacks selects the highest table
  // below it that is present, not the scalar one: a build without the
  // AVX-512 file still has AVX2 on an AVX-512 host.
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    ScopedIsaOverride force(isa);
    EXPECT_EQ(&kernels_t<double>(), next_present_table<double>(isa)) << simd_isa_name(isa);
    EXPECT_EQ(&kernels_t<float>(), next_present_table<float>(isa)) << simd_isa_name(isa);
  }
  if (kernels_for(SimdIsa::Avx512) == nullptr && kernels_for(SimdIsa::Avx2) != nullptr) {
    ScopedIsaOverride force(SimdIsa::Avx512);
    EXPECT_EQ(active_isa(), SimdIsa::Avx2);
    EXPECT_EQ(kernels_t<float>().isa, SimdIsa::Avx2);
  }
}

// Checks each level-1 entry of one table against the scalar table of its
// precision. Tolerances are written for fp64 and scaled by the ratio of
// the two machine epsilons, so the fp32 entries get the same number of
// ulps of slack.
template <typename Real>
double scaled_tol(double fp64_tol) {
  return fp64_tol * (std::numeric_limits<Real>::epsilon() / DBL_EPSILON);
}

template <typename Real>
const char* prec(const KernelTableT<Real>&) {
  return sizeof(Real) == 4 ? " f32" : " f64";
}

// Runs `check` on every table of both precisions.
template <typename Check>
void for_each_table(Check check) {
  for (const KernelTable* kt : available_tables()) check(*kt);
  for (const KernelTableT<float>* kt : tables_t<float>()) check(*kt);
}

template <typename Real>
void check_axpy(const KernelTableT<Real>& kt) {
  const Real alpha = Real(1.7);
  for (index_t n : kLens) {
    const auto x = randvec_t<Real>(n, 1);
    auto yref = randvec_t<Real>(n, 2);
    auto y = yref;
    scalar_table_t<Real>()->axpy(n, alpha, x.data(), yref.data());
    kt.axpy(n, alpha, x.data(), y.data());
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(y[i], yref[i], scaled_tol<Real>(4e-16) * (std::fabs(yref[i]) + std::fabs(x[i])))
          << kt.name << prec(kt) << " n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, AxpyMatchesScalar) {
  for_each_table([](const auto& kt) { check_axpy(kt); });
}

template <typename Real>
void check_dot(const KernelTableT<Real>& kt) {
  for (index_t n : kLens) {
    const auto x = randvec_t<Real>(n, 3);
    const auto y = randvec_t<Real>(n, 4);
    const Real ref = scalar_table_t<Real>()->dot(n, x.data(), y.data());
    EXPECT_NEAR(kt.dot(n, x.data(), y.data()), ref, scaled_tol<Real>(1e-14) * (n + 1))
        << kt.name << prec(kt) << " n=" << n;
  }
}

TEST(SimdKernels, DotMatchesScalar) {
  for_each_table([](const auto& kt) { check_dot(kt); });
}

template <typename Real>
void check_scal_copy_swap(const KernelTableT<Real>& kt) {
  const Real alpha = Real(-2.25);
  for (index_t n : kLens) {
    const auto x = randvec_t<Real>(n, 5);
    auto xs = x;
    kt.scal(n, alpha, xs.data());  // one rounded product per entry: bitwise equal
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(xs[i], Real(alpha * x[i])) << kt.name << prec(kt);

    std::vector<Real> y(n, Real(0));
    kt.copy(n, x.data(), y.data());
    EXPECT_EQ(x, y) << kt.name << prec(kt);

    auto a = randvec_t<Real>(n, 6);
    auto b = randvec_t<Real>(n, 7);
    const auto a0 = a, b0 = b;
    kt.swap(n, a.data(), b.data());
    EXPECT_EQ(a, b0) << kt.name << prec(kt);
    EXPECT_EQ(b, a0) << kt.name << prec(kt);
  }
}

TEST(SimdKernels, ScalCopySwapMatchScalar) {
  for_each_table([](const auto& kt) { check_scal_copy_swap(kt); });
}

template <typename Real>
void check_rot(const KernelTableT<Real>& kt) {
  const Real c = static_cast<Real>(std::cos(0.83)), s = static_cast<Real>(std::sin(0.83));
  for (index_t n : kLens) {
    auto x = randvec_t<Real>(n, 8), y = randvec_t<Real>(n, 9);
    auto xr = x, yr = y;
    scalar_table_t<Real>()->rot(n, xr.data(), yr.data(), c, s);
    kt.rot(n, x.data(), y.data(), c, s);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], xr[i], scaled_tol<Real>(4e-16)) << kt.name << prec(kt) << " n=" << n;
      EXPECT_NEAR(y[i], yr[i], scaled_tol<Real>(4e-16)) << kt.name << prec(kt) << " n=" << n;
    }
  }
}

TEST(SimdKernels, RotMatchesScalar) {
  for_each_table([](const auto& kt) { check_rot(kt); });
}

template <typename Real>
void check_sumsq(const KernelTableT<Real>& kt) {
  for (index_t n : kLens) {
    const auto x = randvec_t<Real>(n, 10);
    const Real ref = scalar_table_t<Real>()->sumsq(n, x.data());
    EXPECT_NEAR(kt.sumsq(n, x.data()), ref, scaled_tol<Real>(1e-14) * (n + 1))
        << kt.name << prec(kt) << " n=" << n;
  }
}

TEST(SimdKernels, SumsqMatchesScalar) {
  for_each_table([](const auto& kt) { check_sumsq(kt); });
}

TEST(SimdKernels, Nrm2ExtremeValuesStaySafe) {
  // The level-1 nrm2 wrapper must reject the vectorized sum of squares
  // whenever it could have overflowed/underflowed, whatever table is live.
  for (const KernelTable* kt : available_tables()) {
    ScopedIsaOverride force(kt->isa);
    // n=2 at 1e308: the unscaled sum of squares overflows but the true
    // norm sqrt(2)*1e308 is representable -- only the scaled loop survives.
    std::vector<double> big(2, 1e308);
    EXPECT_TRUE(std::isfinite(nrm2(2, big.data()))) << kt->name;
    EXPECT_NEAR(nrm2(2, big.data()) / 1e308, std::sqrt(2.0), 1e-12) << kt->name;
    std::vector<double> tiny(4, 1e-300);
    EXPECT_NEAR(nrm2(4, tiny.data()) / 1e-300, 2.0, 1e-12) << kt->name;
    std::vector<double> zero(7, 0.0);
    EXPECT_DOUBLE_EQ(nrm2(7, zero.data()), 0.0) << kt->name;
    std::vector<double> plain{3.0, 4.0};
    EXPECT_DOUBLE_EQ(nrm2(2, plain.data()), 5.0) << kt->name;
  }
}

template <typename Real>
void check_pack_a(const KernelTableT<Real>& kt, const KernelTableT<Real>& ref_table) {
  // Every tile height any table uses (4, 8, 16, 32), full and partial
  // rows, both transposes: the vector packers copy whole vectors only
  // when the sliver is a full untransposed multiple of their width.
  const index_t lda = 41, ncols = 40;
  const auto a = randvec_t<Real>(lda * ncols, 11);
  for (index_t MR : {kt.mr, index_t{4}, index_t{8}, index_t{16}, index_t{32}}) {
    for (bool trans : {false, true}) {
      for (index_t mr = 1; mr <= MR; ++mr) {
        const index_t kb = 13, i0 = 5, p0 = 3;
        // For trans, "rows" index the columns of the stored array; the
        // shapes above keep every access in bounds either way.
        std::vector<Real> ref(static_cast<std::size_t>(MR) * kb, Real(-1));
        std::vector<Real> out(static_cast<std::size_t>(MR) * kb, Real(-2));
        ref_table.pack_a(a.data(), lda, trans, i0, mr, p0, kb, ref.data(), MR);
        kt.pack_a(a.data(), lda, trans, i0, mr, p0, kb, out.data(), MR);
        EXPECT_EQ(ref, out) << kt.name << prec(kt) << " MR=" << MR << " mr=" << mr
                            << " trans=" << trans;
      }
    }
  }
}

TEST(SimdKernels, PackAMatchesScalar) {
  for (const KernelTable* kt : available_tables()) check_pack_a(*kt, kScalarTable);
  for (const KernelTableT<float>* kt : tables_t<float>()) check_pack_a(*kt, kScalarTableF32);
}

template <typename Real>
void check_pack_b(const KernelTableT<Real>& kt, const KernelTableT<Real>& ref_table) {
  // Any width NR, not only the tile widths 4 and 8: pack_b writes exactly
  // NR * kb entries, so a guard tail after them must stay untouched.
  const index_t ldb = 41, ncols = 35, guard = 16;
  const auto b = randvec_t<Real>(ldb * ncols, 12);
  for (index_t NR : {kt.nr, index_t{2}, index_t{3}, index_t{4}, index_t{5}, index_t{6},
                     index_t{8}}) {
    for (bool trans : {false, true}) {
      for (index_t nr = 1; nr <= NR; ++nr) {
        for (index_t kb : {1, 2, 3, 4, 5, 7, 8, 13}) {
          const index_t p0 = 2, j0 = 6;
          const std::size_t len = static_cast<std::size_t>(NR) * kb;
          std::vector<Real> ref(len, Real(-1));
          std::vector<Real> out(len + guard, Real(-2));
          ref_table.pack_b(b.data(), ldb, trans, p0, kb, j0, nr, ref.data(), NR);
          kt.pack_b(b.data(), ldb, trans, p0, kb, j0, nr, out.data(), NR);
          EXPECT_EQ(ref, std::vector<Real>(out.begin(), out.begin() + len))
              << kt.name << prec(kt) << " NR=" << NR << " nr=" << nr << " kb=" << kb
              << " trans=" << trans;
          EXPECT_EQ(std::vector<Real>(guard, Real(-2)),
                    std::vector<Real>(out.begin() + len, out.end()))
              << kt.name << prec(kt) << " wrote past NR * kb: NR=" << NR << " nr=" << nr
              << " kb=" << kb << " trans=" << trans;
        }
      }
    }
  }
}

TEST(SimdKernels, PackBMatchesScalar) {
  for (const KernelTable* kt : available_tables()) check_pack_b(*kt, kScalarTable);
  for (const KernelTableT<float>* kt : tables_t<float>()) check_pack_b(*kt, kScalarTableF32);
}

template <typename Real>
void check_microkernel_edges(const KernelTableT<Real>& kt) {
  // Packed panels with kb sweeping small values; every (mr, nr) corner of
  // the table's main tile and of the 4x8 tile; the three beta classes
  // (overwrite, accumulate, general).
  const double tol = std::is_same_v<Real, double> ? 1e-13 : 1e-5;
  for (int wide = 0; wide < 2; ++wide) {
    const index_t MR = wide ? 4 : kt.mr, NR = wide ? 8 : kt.nr;
    const MicrokernelFnT<Real> mk = wide ? kt.mk4x8 : kt.mk;
    for (index_t kb : {1, 2, 3, 7, 16, 33}) {
      const auto ap = randvec_t<Real>(MR * kb, 13);
      const auto bp = randvec_t<Real>(NR * kb, 14);
      // The reference runs in fp64 on the same (rounded) inputs.
      const std::vector<double> ap64(ap.begin(), ap.end()), bp64(bp.begin(), bp.end());
      for (index_t mr = 1; mr <= MR; ++mr) {
        for (index_t nr = 1; nr <= NR; ++nr) {
          for (double beta : {0.0, 1.0, -0.4}) {
            const index_t ldc = MR + 3;
            auto c = randvec_t<Real>(ldc * NR, 15);
            std::vector<double> cref(c.begin(), c.end());
            mk(kb, ap.data(), bp.data(), Real(1.3), Real(beta), c.data(), ldc, mr, nr);
            microkernel_reference(kb, ap64.data(), bp64.data(), MR, NR, double(Real(1.3)),
                                  double(Real(beta)), cref.data(), ldc, mr, nr);
            for (std::size_t i = 0; i < c.size(); ++i)
              EXPECT_NEAR(c[i], cref[i], tol * kb)
                  << kt.name << (sizeof(Real) == 4 ? " f32 " : " f64 ") << MR << "x" << NR
                  << " kb=" << kb << " mr=" << mr << " nr=" << nr << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, MicrokernelsMatchScalarAllEdges) {
  for (const KernelTable* kt : available_tables()) check_microkernel_edges(*kt);
  for (const KernelTableT<float>* kt : tables_t<float>()) check_microkernel_edges(*kt);
}

template <typename Real>
void check_microkernel_beta_zero(const KernelTableT<Real>& kt) {
  for (int wide = 0; wide < 2; ++wide) {
    const index_t MR = wide ? 4 : kt.mr, NR = wide ? 8 : kt.nr;
    const MicrokernelFnT<Real> mk = wide ? kt.mk4x8 : kt.mk;
    const auto ap = randvec_t<Real>(MR * 4, 16);
    const auto bp = randvec_t<Real>(NR * 4, 17);
    std::vector<Real> c(MR * NR, std::numeric_limits<Real>::quiet_NaN());
    mk(4, ap.data(), bp.data(), Real(1), Real(0), c.data(), MR, MR, NR);
    for (Real v : c)
      EXPECT_TRUE(std::isfinite(v)) << kt.name << prec(kt) << " " << MR << "x" << NR;
  }
}

TEST(SimdKernels, MicrokernelBetaZeroOverwritesNaN) {
  for_each_table([](const auto& kt) { check_microkernel_beta_zero(kt); });
}

template <typename Real>
void check_laed4_sums(const KernelTableT<Real>& kt) {
  // Remainder lengths and a split inside, at the ends, and off both ends.
  for (index_t k : {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 127, 128, 129}) {
    Rng rng(18);
    std::vector<Real> delta0(k), z(k);
    double acc = -0.5;
    for (index_t j = 0; j < k; ++j) {
      acc += 0.05 + rng.uniform01();
      delta0[j] = static_cast<Real>(acc);
      z[j] = static_cast<Real>(0.02 + rng.uniform01());
    }
    const Real rho = Real(1.3), tau = Real(0.021);  // off-pole evaluation point
    for (index_t j0 : {index_t{0}, k / 2}) {
      Real w1 = 1, d1 = 0, a1 = 1;
      Real w2 = 1, d2 = 0, a2 = 1;
      scalar_table_t<Real>()->laed4_sums(j0, k, delta0.data(), z.data(), rho, tau, &w1, &d1,
                                         &a1);
      kt.laed4_sums(j0, k, delta0.data(), z.data(), rho, tau, &w2, &d2, &a2);
      EXPECT_NEAR(w2, w1, scaled_tol<Real>(1e-12) * (std::fabs(w1) + a1))
          << kt.name << prec(kt) << " k=" << k;
      EXPECT_NEAR(d2, d1, scaled_tol<Real>(1e-12) * std::fabs(d1))
          << kt.name << prec(kt) << " k=" << k;
      EXPECT_NEAR(a2, a1, scaled_tol<Real>(1e-12) * a1) << kt.name << prec(kt) << " k=" << k;
    }
  }
}

TEST(SimdKernels, Laed4SumsMatchScalar) {
  for_each_table([](const auto& kt) { check_laed4_sums(kt); });
}

// Representations for the Sturm-count tests: random D and L (kind 0), a
// diagonal L D L^T whose eigenvalues are exactly d (kind 1: a shift there
// is a zero pivot), and random D with a few huge L entries, which overflow
// the recurrence and force its restart (kind 2).
template <typename Real>
void sturm_rep(index_t n, int kind, std::vector<Real>& d, std::vector<Real>& l) {
  Rng rng(40 + 3 * n + kind);
  d.resize(n);
  l.resize(n - 1);
  for (auto& x : d) x = static_cast<Real>(rng.uniform_sym());
  for (auto& x : l) x = kind == 1 ? Real(0) : static_cast<Real>(rng.uniform_sym());
  if (kind == 2)
    for (index_t i = 0; i + 1 < n; i += 3) l[i] = std::sqrt(std::numeric_limits<Real>::max());
}

// Shifts that probe every branch: +-0, +-huge and +-inf, the diagonal
// entries (zero pivots in kind 1 and at d[0] in every kind), random points,
// and, for the bounded kinds, both neighbours of each count step: the
// adjacent floats lo < hi with count(lo) <= k < count(hi), where any
// difference in rounding would flip a count.
template <typename Real>
std::vector<Real> sturm_shifts(index_t n, int kind, const std::vector<Real>& d,
                               const std::vector<Real>& l, const std::vector<Real>& ld) {
  const Real big = std::numeric_limits<Real>::max();
  const Real inf = std::numeric_limits<Real>::infinity();
  std::vector<Real> x = {Real(0), -Real(0), big, -big, inf, -inf, Real(1e30), Real(-1e30)};
  for (index_t i = 0; i < std::min<index_t>(n, 24); ++i) x.push_back(d[i]);
  Rng rng(77 + n);
  for (int r = 0; r < 24; ++r) x.push_back(static_cast<Real>(4 * rng.uniform_sym()));
  if (kind != 2) {
    const auto count = [&](Real at) {
      index_t c = 0;
      scalar_table_t<Real>()->sturm_counts_ldl(n, d.data(), l.data(), ld.data(), &at, 1, &c);
      return c;
    };
    for (index_t k = 0; k < n; k += std::max<index_t>(1, n / 7)) {
      Real lo = -8, hi = 8;  // every eigenvalue lies inside: |D|, |L| <= 1
      for (;;) {
        const Real mid = Real(0.5) * (lo + hi);
        if (mid == lo || mid == hi) break;
        (count(mid) > k ? hi : lo) = mid;
      }
      x.push_back(lo);
      x.push_back(hi);
    }
  }
  return x;
}

// Every table, forced through ScopedIsaOverride, returns the scalar
// table's counts exactly: full and partial lane groups (batch sizes around
// each table's one- and two-vector widths), n in {1, 2, 3, 512}.
template <typename Real>
void check_sturm_counts_match_scalar() {
  for (index_t n : {1, 2, 3, 512}) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<Real> d, l;
      sturm_rep(n, kind, d, l);
      std::vector<Real> ld(n - 1);
      for (index_t i = 0; i + 1 < n; ++i) ld[i] = l[i] * d[i];
      const std::vector<Real> x = sturm_shifts(n, kind, d, l, ld);
      const index_t total = static_cast<index_t>(x.size());
      std::vector<index_t> ref(total);
      scalar_table_t<Real>()->sturm_counts_ldl(n, d.data(), l.data(), ld.data(), x.data(), total,
                                              ref.data());
      for (const KernelTableT<Real>* kt : tables_t<Real>()) {
        ScopedIsaOverride force(kt->isa);
        const KernelTableT<Real>& active = kernels_t<Real>();
        EXPECT_GE(active.sturm_lanes, 1);
        for (index_t m : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
          std::vector<index_t> got(total, -1);
          for (index_t j0 = 0; j0 < total; j0 += m)
            active.sturm_counts_ldl(n, d.data(), l.data(), ld.data(), x.data() + j0,
                                    std::min(m, total - j0), got.data() + j0);
          for (index_t j = 0; j < total; ++j)
            EXPECT_EQ(got[j], ref[j]) << active.name << (sizeof(Real) == 4 ? " f32" : " f64")
                                      << " n=" << n << " kind=" << kind << " m=" << m
                                      << " x=" << x[j];
        }
      }
    }
  }
}

TEST(SimdKernels, SturmCountsLdlMatchScalar) { check_sturm_counts_match_scalar<double>(); }

TEST(SimdKernels, SturmCountsLdlMatchScalarF32) { check_sturm_counts_match_scalar<float>(); }

// The twisted factorizations of every table equal the scalar table's byte
// for byte: lplus, umult, gamma and the twist of every shift, over the
// Sturm-count tests' representations and shifts (zero pivots in kind 1 and
// at the diagonal shifts, pivots overflowed to +-inf by kind 2's huge L
// entries and by the +-huge and +-inf shifts), for n in {1, 2, 3, 64, 515}
// and batches of 1, lanes - 1, lanes + 1 and 2 lanes + 3 shifts.
template <typename Real>
void check_twisted_ldl_match_scalar() {
  const auto same = [](Real a, Real b) { return std::memcmp(&a, &b, sizeof(Real)) == 0; };
  for (index_t n : {1, 2, 3, 64, 515}) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<Real> d, l;
      sturm_rep(n, kind, d, l);
      std::vector<Real> ld(n - 1), dll(n - 1);
      for (index_t i = 0; i + 1 < n; ++i) {
        ld[i] = l[i] * d[i];
        dll[i] = ld[i] * l[i];
      }
      const std::vector<Real> x = sturm_shifts(n, kind, d, l, ld);
      const index_t total = static_cast<index_t>(x.size());
      std::vector<Real> lp_ref((n - 1) * total), um_ref((n - 1) * total), g_ref(total);
      std::vector<index_t> k_ref(total);
      scalar_table_t<Real>()->twisted_ldl(n, d.data(), l.data(), ld.data(), dll.data(), x.data(),
                                          total, lp_ref.data(), um_ref.data(), total,
                                          g_ref.data(), k_ref.data());
      for (const KernelTableT<Real>* kt : tables_t<Real>()) {
        ScopedIsaOverride force(kt->isa);
        const KernelTableT<Real>& active = kernels_t<Real>();
        const index_t lanes = active.sturm_lanes;
        for (index_t m : {index_t{1}, lanes - 1, lanes + 1, 2 * lanes + 3}) {
          if (m < 1) continue;
          const index_t ldw = (m + lanes - 1) / lanes * lanes;
          std::vector<Real> lp((n - 1) * ldw), um((n - 1) * ldw), g(m);
          std::vector<index_t> k(m);
          for (index_t j0 = 0; j0 < total; j0 += m) {
            const index_t w = std::min(m, total - j0);
            active.twisted_ldl(n, d.data(), l.data(), ld.data(), dll.data(), x.data() + j0, w,
                               lp.data(), um.data(), ldw, g.data(), k.data());
            for (index_t j = 0; j < w; ++j) {
              const auto where = [&] {
                return std::string(active.name) + (sizeof(Real) == 4 ? " f32" : " f64") +
                       " n=" + std::to_string(n) + " kind=" + std::to_string(kind) +
                       " m=" + std::to_string(m) + " x=" + std::to_string(x[j0 + j]);
              };
              EXPECT_EQ(k[j], k_ref[j0 + j]) << where();
              EXPECT_TRUE(same(g[j], g_ref[j0 + j])) << where() << " gamma";
              for (index_t i = 0; i + 1 < n; ++i) {
                EXPECT_TRUE(same(lp[i * ldw + j], lp_ref[i * total + j0 + j]))
                    << where() << " lplus i=" << i;
                EXPECT_TRUE(same(um[i * ldw + j], um_ref[i * total + j0 + j]))
                    << where() << " umult i=" << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, TwistedLdlMatchScalar) { check_twisted_ldl_match_scalar<double>(); }

TEST(SimdKernels, TwistedLdlMatchScalarF32) { check_twisted_ldl_match_scalar<float>(); }

// Every size from 1 to 2*tile + 1 (each residue mod the tile, once as a
// lone partial tile and once behind a full one), a multiple plus a ragged
// remainder, and the fixed `floor` sizes that every table sweeps whatever
// its tile.
std::vector<index_t> residue_sizes(index_t tile, std::initializer_list<index_t> floor) {
  std::vector<index_t> v(floor);
  for (index_t s = 1; s <= 2 * tile + 1; ++s) v.push_back(s);
  v.push_back(3 * tile + 5);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

template <typename Real>
void check_gemm_residues(const KernelTableT<Real>& kt) {
  // m sweeps every residue mod the table's mr (and so mod the 4-row
  // short-wide tile); n every residue mod max(nr, 8), which covers the
  // table's nr and the 8 columns of the short-wide tile that m <= 4 picks.
  // k is chosen to clear every table's small-volume cutoff so the packed
  // path really runs (and crosses kc blocks for thin shapes). beta = 0
  // runs on a NaN-filled C, which it must overwrite.
  ScopedIsaOverride force(kt.isa);
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const double eps = std::is_same_v<Real, double> ? 1e-11 : 64.0 * FLT_EPSILON;
  const std::vector<index_t> ms = residue_sizes(kt.mr, {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17});
  const std::vector<index_t> ns =
      residue_sizes(std::max<index_t>(kt.nr, 8), {1, 2, 3, 4, 5, 7, 8, 9, 12, 13});
  for (index_t m : ms) {
    for (index_t n : ns) {
      const index_t k = 32768 / (m * n) + 29;
      Rng rng(100 + m * 17 + n);
      MatrixT<Real> a(m, k), b(k, n), c0(m, n);
      for (index_t j = 0; j < k; ++j)
        for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<Real>(rng.uniform_sym());
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < k; ++i) b(i, j) = static_cast<Real>(rng.uniform_sym());
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) c0(i, j) = static_cast<Real>(rng.uniform_sym());
      for (Real beta : {Real(0), Real(1), Real(0.5), Real(-0.6)}) {
        MatrixT<Real> c = c0, cref = c0;
        if (beta == Real(0))
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < m; ++i) c(i, j) = nan;
        gemm(Trans::No, Trans::No, m, n, k, Real(0.9), a.data(), m, b.data(), k, beta,
             c.data(), m);
        gemm_reference(Trans::No, Trans::No, m, n, k, Real(0.9), a.data(), m, b.data(), k,
                       beta, cref.data(), m);
        double worst = 0.0;
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) {
            const double diff = std::fabs(double(c(i, j)) - double(cref(i, j)));
            worst = std::isnan(diff) ? diff : std::max(worst, diff);
          }
        EXPECT_LT(worst, eps * k) << kt.name << (sizeof(Real) == 4 ? " f32" : " f64")
                                  << " m=" << m << " n=" << n << " k=" << k
                                  << " beta=" << beta;
      }
    }
  }
}

TEST(SimdGemm, AllResidueShapesMatchReferenceUnderEveryTable) {
  for (const KernelTable* kt : available_tables()) check_gemm_residues(*kt);
}

TEST(SimdGemm, AllResidueShapesMatchReferenceUnderEveryFloatTable) {
  for (const KernelTableT<float>* kt : tables_t<float>()) check_gemm_residues(*kt);
}

template <typename Real>
void check_avx512_matches_avx2_bitwise() {
  // Every vector microkernel is one template that gives each C element the
  // same FMA chains and write-back whatever the tile, so the products agree
  // bit for bit at any alpha and beta, whatever the tile boundaries.
  if (kernels_for_t<Real>(SimdIsa::Avx512) == nullptr) GTEST_SKIP() << "no AVX-512 table";
  for (index_t m : {3, 9, 16, 37, 100}) {
    for (index_t n : {5, 8, 13, 40}) {
      for (index_t k : {300, 700}) {  // one and several kc blocks
        Rng rng(300 + m + n + k);
        MatrixT<Real> a(m, k), b(k, n), c0(m, n);
        for (index_t j = 0; j < k; ++j)
          for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<Real>(rng.uniform_sym());
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < k; ++i) b(i, j) = static_cast<Real>(rng.uniform_sym());
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) c0(i, j) = static_cast<Real>(rng.uniform_sym());
        for (const auto& [alpha, beta] : {std::pair<Real, Real>{1, 0}, {1, 1}, {-1, 1},
                                          {1.3f, 1}, {1.3f, -0.4f}}) {
          MatrixT<Real> c2 = c0, c5 = c0;
          {
            ScopedIsaOverride force(SimdIsa::Avx2);
            gemm(Trans::No, Trans::No, m, n, k, alpha, a.data(), m, b.data(), k, beta,
                 c2.data(), m);
          }
          {
            ScopedIsaOverride force(SimdIsa::Avx512);
            gemm(Trans::No, Trans::No, m, n, k, alpha, a.data(), m, b.data(), k, beta,
                 c5.data(), m);
          }
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < m; ++i)
              ASSERT_EQ(c2(i, j), c5(i, j)) << "m=" << m << " n=" << n << " k=" << k
                                            << " alpha=" << alpha << " beta=" << beta
                                            << " at " << i << "," << j;
        }
      }
    }
  }
}

TEST(SimdGemm, Avx512MatchesAvx2Bitwise) { check_avx512_matches_avx2_bitwise<double>(); }

TEST(SimdGemm, Avx512MatchesAvx2BitwiseF32) { check_avx512_matches_avx2_bitwise<float>(); }

TEST(SimdGemm, TransposedShapesMatchReferenceUnderEveryTable) {
  for (const KernelTable* kt : available_tables()) {
    ScopedIsaOverride force(kt->isa);
    const index_t m = 37, n = 29, k = 41;
    Rng rng(200);
    // Volume 37*29*41 = 43993 > every cutoff.
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        Matrix a = (ta == Trans::No) ? Matrix(m, k) : Matrix(k, m);
        Matrix b = (tb == Trans::No) ? Matrix(k, n) : Matrix(n, k);
        Matrix c(m, n), cref(m, n);
        for (index_t j = 0; j < a.cols(); ++j)
          for (index_t i = 0; i < a.rows(); ++i) a(i, j) = rng.uniform_sym();
        for (index_t j = 0; j < b.cols(); ++j)
          for (index_t i = 0; i < b.rows(); ++i) b(i, j) = rng.uniform_sym();
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) cref(i, j) = c(i, j) = rng.uniform_sym();
        gemm(ta, tb, m, n, k, 1.2, a.data(), a.ld(), b.data(), b.ld(), 0.4, c.data(), m);
        gemm_reference(ta, tb, m, n, k, 1.2, a.data(), a.ld(), b.data(), b.ld(), 0.4,
                       cref.data(), m);
        double worst = 0.0;
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i)
            worst = std::max(worst, std::fabs(c(i, j) - cref(i, j)));
        EXPECT_LT(worst, 1e-11 * k) << kt->name;
      }
    }
  }
}

TEST(SimdLevel1, StridedVariantsUnaffectedByDispatch) {
  // Strided level-1 calls stay scalar whatever table is active; spot-check
  // they agree with the contiguous kernels on equivalent data.
  for (const KernelTable* kt : available_tables()) {
    ScopedIsaOverride force(kt->isa);
    const index_t n = 57;
    auto xs = randvec(2 * n, 19);
    auto y = randvec(n, 20);
    auto ycontig = y;
    std::vector<double> xc(n);
    for (index_t i = 0; i < n; ++i) xc[i] = xs[2 * i];
    axpy(n, 0.7, xs.data(), 2, y.data(), 1);
    axpy(n, 0.7, xc.data(), ycontig.data());
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(y[i], ycontig[i], 4e-16 * (std::fabs(y[i]) + 1.0)) << kt->name;
    EXPECT_NEAR(dot(n, xs.data(), 2, y.data(), 1), dot(n, xc.data(), y.data()),
                1e-13 * n)
        << kt->name;
  }
}

}  // namespace
}  // namespace dnc::blas::simd
