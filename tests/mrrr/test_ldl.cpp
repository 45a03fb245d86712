#include "mrrr/ldl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "common/rng.hpp"
#include "lapack/bisect.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "obs/counters.hpp"

namespace dnc::mrrr {
namespace {

// Reconstructs the tridiagonal entries of L D L^T for verification.
void reconstruct(const Representation& rep, std::vector<double>& d, std::vector<double>& e) {
  const index_t n = rep.n();
  d.resize(n);
  e.resize(n - 1);
  d[0] = rep.d[0];
  for (index_t i = 0; i + 1 < n; ++i) {
    e[i] = rep.l[i] * rep.d[i];
    d[i + 1] = rep.d[i + 1] + rep.l[i] * rep.l[i] * rep.d[i];
  }
}

TEST(Ldl, FactorReconstructs) {
  auto t = matgen::onetwoone(20);
  const double sigma = -0.5;  // below the spectrum
  auto rep = ldl_factor(20, t.d.data(), t.e.data(), sigma);
  std::vector<double> dr, er;
  reconstruct(rep, dr, er);
  for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(dr[i], t.d[i] - sigma, 1e-13);
  for (index_t i = 0; i + 1 < 20; ++i) EXPECT_NEAR(er[i], t.e[i], 1e-13);
}

TEST(Ldl, DefiniteShiftGivesPositivePivots) {
  auto t = matgen::laguerre(30);
  auto rep = ldl_factor(30, t.d.data(), t.e.data(), -1.0);  // Laguerre is PD
  for (double x : rep.d) EXPECT_GT(x, 0.0);
}

TEST(Ldl, SturmCountMatchesTridiagonalCount) {
  Rng rng(3);
  matgen::Tridiag t;
  const index_t n = 40;
  t.d.resize(n);
  t.e.resize(n - 1);
  for (auto& x : t.d) x = rng.uniform_sym();
  for (auto& x : t.e) x = rng.uniform_sym();
  double glo, ghi;
  lapack::gershgorin_bounds(n, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(n, t.d.data(), t.e.data(), glo - 0.1);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = glo + frac * (ghi - glo);
    EXPECT_EQ(sturm_count_ldl(rep, x - rep.sigma),
              lapack::sturm_count(n, t.d.data(), t.e.data(), x))
        << "at " << x;
  }
}

TEST(Ldl, DstqdsShiftsSpectrum) {
  auto t = matgen::onetwoone(25);
  auto rep = ldl_factor(25, t.d.data(), t.e.data(), -1.0);
  Representation shifted;
  ASSERT_TRUE(dstqds(rep, 0.5, shifted));
  EXPECT_DOUBLE_EQ(shifted.sigma, -0.5);
  // Eigenvalue 0 of original matrix: 2-2cos(pi/26); the shifted rep's
  // eigenvalue must equal it minus the total shift.
  const double lam0 = 2.0 - 2.0 * std::cos(3.14159265358979323846 / 26.0);
  const double got = bisect_ldl(shifted, 0, lam0 - shifted.sigma - 1.0,
                                lam0 - shifted.sigma + 1.0, 0.0);
  EXPECT_NEAR(got + shifted.sigma, lam0, 1e-12);
}

TEST(Ldl, DstqdsComposesWithDirectFactor) {
  // dstqds(rep(sigma), tau) must equal (numerically) ldl_factor(sigma+tau).
  auto t = matgen::legendre(20);
  auto a = ldl_factor(20, t.d.data(), t.e.data(), -2.0);
  Representation via;
  ASSERT_TRUE(dstqds(a, 0.7, via));
  auto direct = ldl_factor(20, t.d.data(), t.e.data(), -1.3);
  std::vector<double> d1, e1, d2, e2;
  reconstruct(via, d1, e1);
  reconstruct(direct, d2, e2);
  for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(d1[i], d2[i], 1e-12);
}

TEST(Ldl, BisectLdlFindsEigenvalues) {
  auto t = matgen::clement(15);
  double glo, ghi;
  lapack::gershgorin_bounds(15, t.d.data(), t.e.data(), glo, ghi);
  auto rep = ldl_factor(15, t.d.data(), t.e.data(), glo - 1.0);
  // Clement eigenvalues are -14, -12, ..., 14.
  for (index_t k = 0; k < 15; ++k) {
    const double exact = -14.0 + 2.0 * k;
    const double got =
        bisect_ldl(rep, k, exact - rep.sigma - 0.5, exact - rep.sigma + 0.5, 0.0) + rep.sigma;
    EXPECT_NEAR(got, exact, 1e-10);
  }
}

// One eigenvalue through the batched refinement.
template <typename Real>
Real refine_one(const RepresentationT<Real>& rep, index_t k, Real guess, Real pad) {
  Real out = 0;
  refine_ldl(rep, 1, &k, &guess, &pad, &out);
  return out;
}

// refine_ldl verifies its bracket, so a guess off by far more than the pad
// still yields eigenvalue k, and so does pad = 0.
TEST(Ldl, RefineLdlRecoversFromWrongGuessAndZeroPad) {
  auto t = matgen::clement(15);
  double glo, ghi;
  lapack::gershgorin_bounds(15, t.d.data(), t.e.data(), glo, ghi);
  const double spread = ghi - glo;
  auto rep = ldl_factor(15, t.d.data(), t.e.data(), glo - 1.0);
  for (index_t k = 0; k < 15; ++k) {
    const double exact = -14.0 + 2.0 * k - rep.sigma;
    const double ref = bisect_ldl(rep, k, exact - 0.5, exact + 0.5, 0.0);
    for (double miss : {-1e-3 * spread, 1e-3 * spread, 0.0}) {
      for (double pad : {0.0, 1e-12 * spread}) {
        const double got = refine_one(rep, k, exact + miss, pad);
        EXPECT_NEAR(got, ref, 8 * std::numeric_limits<double>::epsilon() * std::fabs(ref))
            << "k=" << k << " miss=" << miss << " pad=" << pad;
      }
    }
  }
}

// A guess one eigenvalue away lands in the neighbour's bracket; the count
// check must move it back to eigenvalue k.
TEST(Ldl, RefineLdlUsesIndexNotNearestEigenvalue) {
  auto t = matgen::clement(9);
  auto rep = ldl_factor(9, t.d.data(), t.e.data(), -9.0);
  std::vector<index_t> ks;
  std::vector<double> guess, pad;
  for (index_t k = 0; k + 1 < 9; ++k) {
    ks.push_back(k);
    guess.push_back(-8.0 + 2.0 * (k + 1) - rep.sigma);
    pad.push_back(1e-6);
  }
  std::vector<double> got(ks.size());
  refine_ldl(rep, static_cast<index_t>(ks.size()), ks.data(), guess.data(), pad.data(),
             got.data());
  for (index_t k = 0; k + 1 < 9; ++k)
    EXPECT_NEAR(got[k] + rep.sigma, -8.0 + 2.0 * k, 1e-12) << "k=" << k;
}

TEST(Ldl, RefineLdlNonFiniteGuessThrows) {
  auto t = matgen::onetwoone(12);
  auto rep = ldl_factor(12, t.d.data(), t.e.data(), -1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(refine_one(rep, 3, nan, 1e-3), NumericalError);
  EXPECT_THROW(refine_one(rep, 3, 1.0, inf), NumericalError);
  // One bad entry anywhere in a batch raises, whatever the others hold.
  std::vector<index_t> ks(20);
  std::vector<double> guess(20, 1.0), pad(20, 1e-3), out(20);
  for (index_t j = 0; j < 20; ++j) ks[j] = j % 12;
  for (double bad : {nan, inf, -inf}) {
    for (index_t at : {0, 7, 19}) {
      guess[at] = bad;
      EXPECT_THROW(refine_ldl(rep, 20, ks.data(), guess.data(), pad.data(), out.data()),
                   NumericalError);
      guess[at] = 1.0;
      pad[at] = bad;
      EXPECT_THROW(refine_ldl(rep, 20, ks.data(), guess.data(), pad.data(), out.data()),
                   NumericalError);
      pad[at] = 1e-3;
    }
  }
  const float d32[] = {2.0f};
  auto rep32 = ldl_factor<float>(1, d32, nullptr, 0.0f);
  EXPECT_THROW(refine_one(rep32, 0, std::numeric_limits<float>::quiet_NaN(), 0.0f),
               NumericalError);
}

// The one-eigenvalue refinement the batch replays: widen each side of
// [guess - pad, guess + pad] by doubling until it brackets eigenvalue k,
// then bisect_ldl with tol = 0.
template <typename Real>
Real refine_reference(const RepresentationT<Real>& rep, index_t k, Real guess, Real pad) {
  const Real step0 =
      std::max(real_traits<Real>::eps() * std::fabs(guess), real_traits<Real>::safmin());
  Real wlo = std::max(std::fabs(pad), step0), whi = wlo;
  Real lo = guess - wlo, hi = guess + whi;
  while (sturm_count_ldl(rep, lo) > k) lo = guess - (wlo *= 2);
  while (sturm_count_ldl(rep, hi) <= k) hi = guess + (whi *= 2);
  return bisect_ldl(rep, k, lo, hi, Real(0));
}

// Far-off guesses (a neighbour's value, the spectrum's far end) and wrong
// pads (zero, wider than the spectrum), in batches that run through many
// lane refills: under every kernel table the batch returns, bit for bit,
// what the one-at-a-time refinement on the scalar table returns, with the
// same number of Sturm-count steps and halvings.
template <typename Real>
void check_batch_matches_one_at_a_time() {
  const index_t n = 40;
  Rng rng(5);
  std::vector<Real> d(n), e(n - 1);
  for (auto& x : d) x = static_cast<Real>(rng.uniform_sym());
  for (auto& x : e) x = static_cast<Real>(rng.uniform_sym());
  Real glo, ghi;
  lapack::gershgorin_bounds(n, d.data(), e.data(), glo, ghi);
  const Real spread = ghi - glo;
  auto rep = ldl_factor(n, d.data(), e.data(), glo - Real(0.1) * spread);
  std::vector<Real> w;
  {
    blas::simd::ScopedIsaOverride scalar(SimdIsa::Scalar);
    for (index_t k = 0; k < n; ++k)
      w.push_back(bisect_ldl(rep, k, Real(0), Real(1.2) * spread, Real(0)));
  }
  std::vector<index_t> ks;
  std::vector<Real> guess, pad;
  for (index_t k = 0; k < n; ++k) {
    const Real far[] = {w[k], w[std::min(k + 1, n - 1)], w[std::max<index_t>(k - 3, 0)],
                        w[n - 1 - k], w[k] + Real(0.5) * spread};
    for (Real g : far)
      for (Real p : {Real(0), Real(1e-3) * spread, Real(4) * spread}) {
        ks.push_back(k);
        guess.push_back(g);
        pad.push_back(p);
      }
  }
  const index_t m = static_cast<index_t>(ks.size());
  std::vector<Real> ref(m);
  obs::CounterArray ref_steps;
  {
    blas::simd::ScopedIsaOverride scalar(SimdIsa::Scalar);
    const obs::CounterArray before = obs::snapshot();
    for (index_t j = 0; j < m; ++j) ref[j] = refine_reference(rep, ks[j], guess[j], pad[j]);
    ref_steps = obs::delta_since(before);
  }
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    blas::simd::ScopedIsaOverride force(isa);
    std::vector<Real> got(m);
    const obs::CounterArray before = obs::snapshot();
    refine_ldl(rep, m, ks.data(), guess.data(), pad.data(), got.data());
    const obs::CounterArray steps = obs::delta_since(before);
    for (index_t j = 0; j < m; ++j)
      EXPECT_EQ(got[j], ref[j]) << simd_isa_name(isa) << " j=" << j << " k=" << ks[j];
    for (obs::Counter c : {obs::kSturmSteps, obs::kBisectLdlCalls, obs::kBisectLdlSteps})
      EXPECT_EQ(steps[c], ref_steps[c]) << simd_isa_name(isa) << " " << obs::counter_name(c);
  }
}

TEST(Ldl, RefineLdlBatchMatchesOneAtATime) { check_batch_matches_one_at_a_time<double>(); }
TEST(Ldl, RefineLdlBatchMatchesOneAtATimeF32) { check_batch_matches_one_at_a_time<float>(); }

// Sturm-count and halving totals of whole solves, recorded before the
// refinement was batched: batching changes how counts are grouped, never
// how many there are. The totals depend on the kernel table only through
// the generated fp64 input (matgen's Lanczos runs on the level-1 kernels),
// so the scalar table has its own fp64 values and the AVX2 and AVX-512
// tables share theirs. They also depend on the root eigenvalue guesses
// that sterf supplies.
TEST(Ldl, SolveSturmAndBisectStepsPinned) {
  struct Cell {
    int type;
    Precision precision;
    std::uint64_t scalar_sturm, scalar_bisect, vector_sturm, vector_bisect;
  };
  const Cell cells[] = {{3, Precision::F64, 1821000, 4893, 1819800, 4890},
                        {7, Precision::F64, 6551400, 19952, 6554100, 19963},
                        {3, Precision::F32, 1817400, 4883, 1817400, 4883},
                        {7, Precision::F32, 7139100, 21603, 7139100, 21603}};
  for (SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512}) {
    if (blas::simd::kernels_for(isa) == nullptr) continue;
    blas::simd::ScopedIsaOverride force(isa);
    for (const Cell& c : cells) {
      const index_t n = 300;
      auto t = matgen::table3_matrix(c.type, n);
      std::vector<double> lam;
      Matrix v;
      Options opt;
      opt.threads = 2;
      opt.precision = c.precision;
      Stats st;
      mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
      const bool scalar = isa == SimdIsa::Scalar;
      EXPECT_EQ(st.report.counter(obs::kSturmSteps), scalar ? c.scalar_sturm : c.vector_sturm)
          << simd_isa_name(isa) << " type " << c.type;
      EXPECT_EQ(st.report.counter(obs::kBisectLdlSteps),
                scalar ? c.scalar_bisect : c.vector_bisect)
          << simd_isa_name(isa) << " type " << c.type;
    }
  }
}

TEST(Ldl, SingleElement) {
  const double d[] = {3.0};
  auto rep = ldl_factor<double>(1, d, nullptr, 1.0);
  EXPECT_DOUBLE_EQ(rep.d[0], 2.0);
  EXPECT_EQ(sturm_count_ldl(rep, 1.0), 0);
  EXPECT_EQ(sturm_count_ldl(rep, 3.0), 1);
}

}  // namespace
}  // namespace dnc::mrrr
