// The precision layer's property tests: fp32 kernels against fp64
// references with eps32-scaled tolerances, fp32 laed4 against the fp64
// root, the refinement kernel's overlap trigger, F32RefineF64 solved as
// exactly the F64 solve in every driver, and the front door's range
// scaling at extreme scales in every driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "blas/aux.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/rng.hpp"
#include "dc/api.hpp"
#include "lapack/laed4.hpp"
#include "lapack/refine.hpp"
#include "lapack/sterf.hpp"
#include "matgen/application.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "verify/metrics.hpp"

namespace dnc {
namespace {

constexpr double kEps32 = std::numeric_limits<float>::epsilon();
constexpr double kEps64 = std::numeric_limits<double>::epsilon();

std::vector<double> random_vector(index_t n, Rng& rng, double scale = 1.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = scale * rng.uniform_sym();
  return v;
}

std::vector<float> narrowed(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// fp32 kernels vs fp64 references. The fp64 result stands in for the exact
// one (its error is ~eps64, negligible against the eps32-scale bound); the
// fp32 error of a length-k accumulation is bounded by ~k * eps32 * |x| * |y|.

TEST(PrecisionKernels, GemmF32MatchesF64Reference) {
  Rng rng(42);
  for (index_t m : {index_t{7}, index_t{32}, index_t{61}}) {
    const index_t k = m + 5, n = m + 3;
    const std::vector<double> a = random_vector(m * k, rng);
    const std::vector<double> b = random_vector(k * n, rng);
    std::vector<double> c64(static_cast<std::size_t>(m * n), 0.0);
    blas::gemm<double>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0, a.data(), m, b.data(), k,
                       0.0, c64.data(), m);
    const std::vector<float> a32 = narrowed(a), b32 = narrowed(b);
    std::vector<float> c32(static_cast<std::size_t>(m * n), 0.0f);
    blas::gemm<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a32.data(), m, b32.data(),
                      k, 0.0f, c32.data(), m);
    const double tol = 8.0 * static_cast<double>(k) * kEps32;
    for (std::size_t i = 0; i < c64.size(); ++i)
      ASSERT_NEAR(static_cast<double>(c32[i]), c64[i], tol) << "m=" << m << " i=" << i;
  }
}

TEST(PrecisionKernels, GemmF32MatchesItsOwnReference) {
  // The dispatched fp32 kernel (AVX2 8-lane where available) against the
  // plain-loop fp32 reference: same precision, so near-exact agreement.
  Rng rng(7);
  const index_t m = 48, n = 37, k = 53;
  const std::vector<float> a = narrowed(random_vector(m * k, rng));
  const std::vector<float> b = narrowed(random_vector(k * n, rng));
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> cref = c;
  blas::gemm<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a.data(), m, b.data(), k,
                    0.0f, c.data(), m);
  blas::gemm_reference<float>(blas::Trans::No, blas::Trans::No, m, n, k, 1.0f, a.data(), m,
                              b.data(), k, 0.0f, cref.data(), m);
  // FMA vs separate mul+add and blocked summation reorder the accumulation;
  // the difference stays within a few ulps per term.
  const double tol = 4.0 * static_cast<double>(k) * kEps32;
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(cref[i]), tol) << "i=" << i;
}

TEST(PrecisionKernels, DotF32MatchesF64) {
  Rng rng(3);
  for (index_t n : {index_t{9}, index_t{256}, index_t{1021}}) {
    const std::vector<double> x = random_vector(n, rng);
    const std::vector<double> y = random_vector(n, rng);
    const std::vector<float> x32 = narrowed(x), y32 = narrowed(y);
    const double d64 = blas::dot<double>(n, x.data(), y.data());
    const float d32 = blas::dot<float>(n, x32.data(), y32.data());
    EXPECT_NEAR(static_cast<double>(d32), d64, 4.0 * static_cast<double>(n) * kEps32)
        << "n=" << n;
  }
}

TEST(PrecisionKernels, AxpyF32MatchesF64) {
  Rng rng(5);
  const index_t n = 517;
  const std::vector<double> x = random_vector(n, rng);
  std::vector<double> y = random_vector(n, rng);
  std::vector<float> x32 = narrowed(x), y32 = narrowed(y);
  blas::axpy<double>(n, 0.37, x.data(), y.data());
  blas::axpy<float>(n, 0.37f, x32.data(), y32.data());
  for (index_t i = 0; i < n; ++i)
    ASSERT_NEAR(static_cast<double>(y32[static_cast<std::size_t>(i)]),
                y[static_cast<std::size_t>(i)], 8.0 * kEps32)
        << "i=" << i;
}

// ---------------------------------------------------------------------------
// fp32 laed4 against the fp64 root: the secular roots are separated by the
// pole gaps, so the fp32 root must agree to ~eps32 relative to the spread.

TEST(PrecisionLaed4, F32RootsMatchF64) {
  Rng rng(11);
  for (index_t k : {index_t{2}, index_t{5}, index_t{24}, index_t{96}}) {
    std::vector<double> d(static_cast<std::size_t>(k));
    std::vector<double> z(static_cast<std::size_t>(k));
    double acc = 0.0;
    for (index_t j = 0; j < k; ++j) {
      acc += 0.05 + rng.uniform01();  // strictly increasing with real gaps
      d[static_cast<std::size_t>(j)] = acc;
      z[static_cast<std::size_t>(j)] = 0.1 + rng.uniform01();
    }
    double znorm2 = 0.0;
    for (double zj : z) znorm2 += zj * zj;
    const double inv = 1.0 / std::sqrt(znorm2);
    for (double& zj : z) zj *= inv;
    const double rho = 0.75;
    const double spread = d.back() - d.front() + rho;

    const std::vector<float> d32v = narrowed(d), z32v = narrowed(z);
    std::vector<double> delta64(static_cast<std::size_t>(k));
    std::vector<float> delta32(static_cast<std::size_t>(k));
    for (index_t i = 0; i < k; ++i) {
      const auto r64 = lapack::laed4<double>(k, i, d.data(), z.data(), rho, delta64.data());
      const auto r32 =
          lapack::laed4<float>(k, i, d32v.data(), z32v.data(), 0.75f, delta32.data());
      ASSERT_NEAR(static_cast<double>(r32.lambda), r64.lambda, 64.0 * kEps32 * spread)
          << "k=" << k << " i=" << i;
      // Both precisions must keep the root inside its bracket.
      if (i < k - 1) {
        EXPECT_LE(d[static_cast<std::size_t>(i)], r64.lambda + kEps64 * spread);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end precision modes over the five bench families (the deflation
// spectrum of Table III plus the two classic structured matrices).

struct Family {
  const char* name;
  int type;
};
constexpr Family kFamilies[] = {
    {"deflate100", 2}, {"deflate50", 3}, {"deflate20", 4},
    {"onetwoone", 10}, {"wilkinson", 11},
};

TEST(PrecisionSolve, PureF32GivesF32GradeResults) {
  const index_t n = 150;
  for (const Family& fam : kFamilies) {
    auto t = matgen::table3_matrix(fam.type, n, 5);
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = Precision::F32;
    opt.minpart = 32;
    opt.threads = 2;
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt);
    EXPECT_LT(verify::orthogonality(v), 100.0 * kEps32) << fam.name;
    EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps32) << fam.name;
    EXPECT_TRUE(std::is_sorted(d.begin(), d.end())) << fam.name;
  }
}

/// The overlap trigger: two columns collapsed onto one eigenvector (what
/// RQI does to an fp32-degenerate pair) must leave the basis uncertified.
/// Column j of an fp64 solution is overwritten with column k, then the
/// pairs are refined.
void expect_duplicate_detected(const matgen::Tridiag& t, index_t k, index_t j, const char* what) {
  const index_t n = t.n();
  std::vector<double> lam = t.d, e = t.e;
  Matrix v;
  dc::Options opt;
  opt.precision = Precision::F64;
  dc::stedc_sequential(n, lam.data(), e.data(), v, opt);
  blas::copy(n, v.data() + k * v.ld(), v.data() + j * v.ld());
  const lapack::RefineReport rep =
      lapack::refine_eigenpairs(n, t.d.data(), t.e.data(), lam.data(), v.data(), v.ld(), n);
  EXPECT_EQ(rep.checked, n) << what;
  EXPECT_GT(rep.broken_clusters, 0) << what;
  EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end())) << what;
}

TEST(PrecisionRefine, OverlapTriggerDetectsDuplicateInCluster) {
  // Glued Wilkinson: each W21 eigenvalue becomes a tight cluster of six.
  const auto t = matgen::glued_wilkinson(21, 6, 1e-4);
  const index_t k = t.n() - 2;
  expect_duplicate_detected(t, k, k + 1, "glued Wilkinson, top cluster");
}

TEST(PrecisionRefine, OverlapTriggerDetectsDuplicateAcrossWideGap) {
  // Type 4 (arithmetic grading): every neighbour gap is inside the chaining
  // width 1e-2 ||T||_1, but the duplicate's own eigenvalue sits more than
  // twice that width above the source's, so only the long chain links them.
  const index_t n = 150;
  const auto t = matgen::table3_matrix(4, n, 5);
  std::vector<double> lam = t.d, e = t.e;
  lapack::sterf(n, lam.data(), e.data());
  const double wide = 2e-2 * blas::lanst_one(n, t.d.data(), t.e.data());
  const index_t k = n / 3;
  index_t j = k + 1;
  while (j + 1 < n && lam[j] - lam[k] <= wide) ++j;
  ASSERT_GT(lam[j] - lam[k], wide);
  for (index_t i = k; i < j; ++i) ASSERT_LE(lam[i + 1] - lam[i], wide / 2) << "i=" << i;
  expect_duplicate_detected(t, k, j, "type 4, wide gap");
}

TEST(PrecisionSolve, ReportStampsPrecision) {
  const index_t n = 90;
  auto t = matgen::table3_matrix(4, n, 13);
  const struct {
    Precision p;
    const char* name;
    int bits;
  } cases[] = {{Precision::F64, "f64", 64}, {Precision::F32, "f32", 32}};
  for (const auto& c : cases) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = c.p;
    dc::SolveStats st;
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
    EXPECT_EQ(st.report.precision, c.name);
    EXPECT_EQ(st.report.precision_bits(), c.bits);
  }
}

/// Solves t with driver 0-3 (the D&C execution models) or 4 (MRRR) and
/// returns the working precision its report names.
std::string solve_with(int driver, const matgen::Tridiag& t, Precision p,
                       std::vector<double>& lam, Matrix& v) {
  const index_t n = t.n();
  if (driver == 4) {
    mrrr::Options opt;
    opt.precision = p;
    opt.threads = 2;
    mrrr::Stats st;
    mrrr::mrrr_solve(n, t.d.data(), t.e.data(), lam, v, opt, &st);
    return st.report.precision;
  }
  lam = t.d;
  std::vector<double> e = t.e;
  dc::Options opt;
  opt.precision = p;
  opt.minpart = 32;
  opt.threads = 2;
  dc::SolveStats st;
  switch (driver) {
    case 0: dc::stedc_sequential(n, lam.data(), e.data(), v, opt, &st); break;
    case 1: dc::stedc_taskflow(n, lam.data(), e.data(), v, opt, &st); break;
    case 2: dc::stedc_lapack_model(n, lam.data(), e.data(), v, opt, &st); break;
    case 3: dc::stedc_scalapack_model(n, lam.data(), e.data(), v, opt, &st); break;
  }
  return st.report.precision;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.data() + j * a.ld(), b.data() + j * b.ld(), a.rows() * sizeof(double)) != 0)
      return false;
  return true;
}

// F32RefineF64 is an alias of F64: every driver solves it as exactly the
// F64 solve and reports "f64". The inputs are those the retired fp32 +
// refinement path could not certify -- a type 3 cluster of equal
// eigenvalues, a graded matrix whose small entries narrow to fp32
// denormals or zero, glued Wilkinson with clusters of fifteen eigenvalues
// 1e-14 apart -- and Hermite, where it certified every column.
TEST(PrecisionSolve, F32RefineF64IsBitwiseF64) {
  const index_t n = 300;
  matgen::Tridiag graded;
  for (index_t i = 0; i < n; ++i) {
    graded.d.push_back(std::pow(0.5, static_cast<double>(i)));
    if (i + 1 < n) graded.e.push_back(std::pow(0.5, static_cast<double>(i) + 0.5));
  }
  const struct {
    const char* name;
    matgen::Tridiag t;
  } inputs[] = {{"type 3", matgen::table3_matrix(3, n, 5)},
                {"graded", graded},
                {"glued Wilkinson 1e-14", matgen::glued_wilkinson(21, 15, 1e-14)},
                {"Hermite", matgen::table3_matrix(15, 1000, 5)}};
  const char* const kDrivers[] = {"sequential", "taskflow", "lapack_model", "scalapack_model",
                                  "mrrr"};
  for (const auto& in : inputs) {
    for (int driver = 0; driver < 5; ++driver) {
      std::ostringstream what;
      what << kDrivers[driver] << " " << in.name;
      std::vector<double> lam, lam64;
      Matrix v, v64;
      EXPECT_EQ(solve_with(driver, in.t, Precision::F64, lam64, v64), "f64") << what.str();
      EXPECT_EQ(solve_with(driver, in.t, Precision::F32RefineF64, lam, v), "f64") << what.str();
      EXPECT_TRUE(same_bits(lam, lam64)) << what.str();
      EXPECT_TRUE(same_bits(v, v64)) << what.str();
    }
  }
}

// The front door's range scaling: T scaled by 1e+-300 or 1e+-150 is solved
// by every driver at every precision as accurately as at unit scale. Every
// finite input must solve: under F32 T is scaled into range before it is
// narrowed, so it can neither flush to zero nor overflow.
TEST(PrecisionSolve, ExtremeScalesStayAccurate) {
  struct Case {
    int type;
    index_t n;
    double scale;
  };
  std::vector<Case> cases;
  for (int type : {3, 4})
    for (double scale : {1e300, 1e-300, 1e150, 1e-150}) cases.push_back({type, 150, scale});
  for (index_t n : {index_t{1}, index_t{2}}) cases.push_back({3, n, 1e-300});
  const char* const kDrivers[] = {"sequential", "taskflow", "lapack_model", "scalapack_model",
                                  "mrrr"};
  for (const Case& c : cases) {
    auto t = matgen::table3_matrix(c.type, c.n, 6);
    for (double& x : t.d) x *= c.scale;
    for (double& x : t.e) x *= c.scale;
    for (Precision p : {Precision::F64, Precision::F32}) {
      const double tol = p == Precision::F32 ? 1e-13 * kEps32 / kEps64 : 1e-13;
      for (int driver = 0; driver < 5; ++driver) {
        std::ostringstream what;
        what << kDrivers[driver] << " " << precision_name(p) << " type " << c.type << " n "
             << c.n << " scale " << c.scale;
        std::vector<double> lam;
        Matrix v;
        solve_with(driver, t, p, lam, v);
        EXPECT_LT(verify::reduction_residual(t, lam, v), tol) << what.str();
        EXPECT_LT(verify::orthogonality(v), tol) << what.str();
        EXPECT_TRUE(std::is_sorted(lam.begin(), lam.end())) << what.str();
      }
    }
  }
}

TEST(PrecisionSolve, AllDriversHonourF32) {
  // Every D&C driver must route through the fp32 path, not just taskflow.
  const index_t n = 110;
  auto t = matgen::table3_matrix(10, n, 3);
  for (int which = 0; which < 4; ++which) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::Options opt;
    opt.precision = Precision::F32;
    opt.minpart = 24;
    dc::SolveStats st;
    switch (which) {
      case 0: dc::stedc_sequential(n, d.data(), e.data(), v, opt, &st); break;
      case 1: dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st); break;
      case 2: dc::stedc_lapack_model(n, d.data(), e.data(), v, opt, &st); break;
      case 3: dc::stedc_scalapack_model(n, d.data(), e.data(), v, opt, &st); break;
    }
    EXPECT_EQ(st.report.precision, "f32") << "driver " << which;
    EXPECT_LT(verify::reduction_residual(t, d, v), 100.0 * kEps32) << "driver " << which;
  }
}

}  // namespace
}  // namespace dnc
