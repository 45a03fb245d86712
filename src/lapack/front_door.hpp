// The one entry path of every public tridiagonal eigensolver.
//
// The D&C drivers (dc/api.hpp) and mrrr_solve (mrrr/mrrr.hpp) differ only
// in the solve they run at the working precision; everything around it is
// written here once. In order, solve_front_door:
//   1. substitutes a local Stats when the caller passed none but
//      DNC_FLIGHT/DNC_HISTORY/DNC_CRASH_DUMP or $DNC_TRACE want the report
//      (it has to exist to be recorded or written into the trace), and
//      starts the stopwatch;
//   2. arms the health probe on the caller's fp64 (d, e);
//   3. checks every entry finite (require_finite: InvalidArgument);
//   4. scales T by range_scale into the working precision's safe range,
//      on copies of (d, e) made only when the scale is not 1;
//   5. runs the solve: under F32 on fp32 copies of (d, e) whose
//      eigenvalues and vectors are widened back, else (F64, its alias
//      F32RefineF64, and n <= 1) on the fp64 (d, e) or their scaled copies;
//   6. divides the eigenvalues by the scale;
//   7. restores the caller's report family, stamps the time, evaluates the
//      health probe, writes the trace and records the telemetry.
// With every gate off this adds one pass over (d, e) and a few relaxed
// loads to a solve. Any finite input is solved at every precision: after
// step 4 no finite T can over- or underflow on narrowing. The fp32
// eigenvectors of step 5 go to an n x n buffer that the library keeps
// between solves, like the D&C workspace, so a repeated fp32 solve does not
// map and fault it in again; a solve that finds it in use by a concurrent
// one takes a buffer of its own.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "blas/aux.hpp"
#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "common/timer.hpp"
#include "obs/health.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"

namespace dnc::lapack {

/// The fp32 eigenvector buffer kept between solves, held by the solve
/// using it. Leaked like the obs singletons: a solve may still run on
/// another thread while the process tears down.
struct KeptF32Output {
  std::mutex mu;
  MatrixT<float> v;
};

inline KeptF32Output& kept_f32_output() {
  static KeptF32Output* k = new KeptF32Output;
  return *k;
}

/// Solves the fp64 tridiagonal (d, e) of order n at `precision` and writes
/// the ascending eigenvalues to lam and the eigenvectors to v (n x n).
///
/// `solve(d, e, lam, v, stats)` is the driver's solve at one working
/// precision Real (double or float): it reads the tridiagonal (d, e) of
/// type Real*, or const Real* when In is const, writes the n eigenvalues
/// to lam (Real*) and the eigenvectors to v (MatrixT<Real>&), and fills
/// *stats (Stats*, may be null) including its report. A driver that solves
/// in place passes lam == d; the solve then always gets lam == d, and may
/// destroy (d, e). Otherwise (d, e) are left untouched.
template <typename In, typename Stats, typename Solve>
void solve_front_door(const char* who, index_t n, In* d, In* e, double* lam, Matrix& v,
                      Precision precision, Stats* stats, Solve&& solve) {
  const bool telemetry = obs::solve_telemetry_wanted() && n > 0;
  const bool want_export = obs::trace_export_requested();
  Stats local;
  Stats* st = stats ? stats : (telemetry || want_export ? &local : nullptr);
  Stopwatch sw;
  obs::HealthProbe probe;
  if (telemetry) probe.arm(n, d, e);
  require_finite(who, n, d, e);

  // A 1 x 1 problem is its own eigenvalue: nothing to gain from fp32.
  const bool f64 = precision != Precision::F32 || n <= 1;
  const double tnrm = blas::lanst_max<double>(n, d, e);
  const double scale = f64 ? range_scale<double>(tnrm) : range_scale<float>(tnrm);
  std::vector<double> ds, es;
  In* wd = d;
  In* we = e;
  if (scale != 1.0) {
    ds.assign(d, d + n);
    es.assign(e, e + (n > 1 ? n - 1 : 0));
    for (double& x : ds) x *= scale;
    for (double& x : es) x *= scale;
    wd = ds.data();
    we = es.data();
  }
  // The driver starts by resetting *st; the matrix family the caller set
  // on its report outlives that.
  const std::string family = st ? st->report.family : std::string();
  const bool in_place = lam == d;
  // Where the working-precision solve leaves the fp64 eigenvalues.
  double* wlam = lam;
  if (f64) {
    if (in_place && scale != 1.0) wlam = ds.data();
    solve(wd, we, wlam, v, st);
  } else {
    std::vector<float> d32(wd, wd + n), e32(we, we + n - 1), lam32(in_place ? 0 : n);
    float* l32 = in_place ? d32.data() : lam32.data();
    KeptF32Output& kept = kept_f32_output();
    std::unique_lock<std::mutex> hold(kept.mu, std::try_to_lock);
    MatrixT<float> transient;
    MatrixT<float>& v32 = hold ? kept.v : transient;
    solve(d32.data(), e32.data(), l32, v32, st);
    for (index_t i = 0; i < n; ++i) lam[i] = static_cast<double>(l32[i]);
    v.resize(v32.rows(), v32.cols());
    for (index_t j = 0; j < v32.cols(); ++j) {
      const float* src = v32.data() + j * v32.ld();
      double* dst = v.data() + j * v.ld();
      for (index_t i = 0; i < v32.rows(); ++i) dst[i] = static_cast<double>(src[i]);
    }
  }
  if (scale != 1.0)
    for (index_t i = 0; i < n; ++i) lam[i] = wlam[i] / scale;

  if (st == nullptr) return;
  st->report.family = family;
  // The solve's time covers the scaling and the precision conversions.
  st->seconds = st->report.seconds = sw.elapsed();
  if (telemetry) {
    st->report.health = probe.evaluate(lam, v.data(), v.ld(), v.cols());
    st->report.has_health = st->report.health.sampled_columns > 0;
  }
  const rt::Trace* tr = st->report.has_scheduler ? &st->trace : nullptr;
  // Trivial solves finish no report and write no trace.
  if (want_export && !st->report.driver.empty()) obs::export_solve_trace(st->report, tr);
  if (telemetry) obs::record_solve_telemetry(st->report, tr);
}

}  // namespace dnc::lapack
