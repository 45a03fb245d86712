// bench_solver: the solver benchmark harness behind the perf-regression
// gate.
//
// Runs all five drivers (sequential, taskflow, lapack_model,
// scalapack_model, mrrr) over the Table III matrix families that span the
// deflation spectrum, one warmup + >= 5 timed repetitions per cell, and
// writes BENCH_solver.json: per-cell median/IQR/min seconds plus the
// embedded SolveReport aggregates (deflated fraction, laed4 iterations,
// GEMM gflop) that explain *why* a number moved. `dnc compare` diffs
// two such artifacts and fails on regression.
//
// Knobs: DNC_BENCH_NMAX (default 768 here -- wall-clock is 5 drivers x 5
// families x sizes x reps), DNC_BENCH_FAST=1 (CI: nmax/3), DNC_BENCH_REPS
// (default 5), DNC_BENCH_OUT (default BENCH_solver.json), DNC_BENCH_REPORTS
// (directory: side-write the last-rep SolveReport JSON of every cell there,
// named via obs::bench_report_filename, and stamp "reports_dir" into the
// artifact metadata so `dnc compare` can find them for regression
// attribution without a re-run).
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "mrrr/mrrr.hpp"
#include "obs/benchcmp.hpp"
#include "obs/report.hpp"
#include "runtime/trace.hpp"

namespace {

using namespace dnc;

struct Family {
  const char* name;
  int type;  ///< matgen::table3_matrix type
};

// The deflation spectrum of Table III plus the two classic structured
// matrices: type 2 deflates ~100%, type 3 ~50%, type 4 ~20% (the paper's
// hard case), 1-2-1 Toeplitz and Wilkinson sit in between with clustered
// spectra.
constexpr Family kFamilies[] = {
    {"deflate100", 2}, {"deflate50", 3}, {"deflate20", 4},
    {"onetwoone", 10}, {"wilkinson", 11},
};

struct Quartiles {
  double median, q1, q3, min;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * (static_cast<double>(v.size()) - 1.0);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
  };
  return {at(0.5), at(0.25), at(0.75), v.front()};
}

/// One timed solve; returns seconds and fills the report of the last rep.
/// `family` labels the report (the solve cannot know its generator), so a
/// DNC_HISTORY run archives every rep under the family's name.
double run_once(const char* driver, const char* family, const matgen::Tridiag& t,
                const dc::Options& opt, obs::SolveReport& report) {
  const index_t n = t.n();
  if (std::strcmp(driver, "mrrr") == 0) {
    mrrr::Options mopt;
    mopt.threads = 1;
    mopt.precision = opt.precision;
    mrrr::Stats st;
    st.report.family = family;
    std::vector<double> lam;
    Matrix v;
    mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt, &st);
    report = st.report;
    return st.seconds;
  }
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  dc::SolveStats st;
  st.report.family = family;
  if (std::strcmp(driver, "sequential") == 0)
    dc::stedc_sequential(n, d.data(), e.data(), v, opt, &st);
  else if (std::strcmp(driver, "taskflow") == 0)
    dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &st);
  else if (std::strcmp(driver, "lapack_model") == 0)
    dc::stedc_lapack_model(n, d.data(), e.data(), v, opt, &st);
  else
    dc::stedc_scalapack_model(n, d.data(), e.data(), v, opt, &st);
  report = st.report;
  return st.seconds;
}

void append_entry(std::string& js, bool& first_entry, const char* driver, const Family& fam,
                  const char* precision, index_t n, int reps, const Quartiles& q,
                  const obs::SolveReport& rep) {
  char buf[512];
  const std::uint64_t laed4 = rep.counter(obs::kLaed4Calls);
  const double iters_per_call =
      laed4 > 0 ? static_cast<double>(rep.counter(obs::kLaed4Iterations)) /
                      static_cast<double>(laed4)
                : 0.0;
  js += first_entry ? "\n" : ",\n";
  first_entry = false;
  std::snprintf(buf, sizeof buf,
                "    {\"driver\": \"%s\", \"family\": \"%s\", \"precision\": \"%s\", "
                "\"n\": %ld, \"reps\": %d,\n"
                "     \"seconds\": {\"median\": %.9f, \"q1\": %.9f, \"q3\": %.9f, "
                "\"min\": %.9f},\n",
                driver, fam.name, precision, static_cast<long>(n), reps, q.median, q.q1, q.q3,
                q.min);
  js += buf;
  std::snprintf(buf, sizeof buf,
                "     \"report\": {\"deflated_fraction\": %.6f, \"laed4_calls\": %llu, "
                "\"laed4_iters_per_call\": %.3f, \"gemm_gflop\": %.6f,\n"
                "                \"workspace_bytes\": %llu, \"context_bytes\": %llu, "
                "\"rss_hwm_bytes\": %llu}}",
                rep.deflated_fraction(), static_cast<unsigned long long>(laed4), iters_per_call,
                static_cast<double>(rep.counter(obs::kGemmFlops)) * 1e-9,
                static_cast<unsigned long long>(rep.memory.workspace_bytes),
                static_cast<unsigned long long>(rep.memory.context_bytes),
                static_cast<unsigned long long>(rep.memory.rss_hwm_bytes));
  js += buf;
}

}  // namespace

int main() {
  const index_t nmax = bench::nmax_from_env(768);
  int reps = 5;
  if (const char* s = std::getenv("DNC_BENCH_REPS")) reps = std::max(1, std::atoi(s));
  const char* out_path = std::getenv("DNC_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_solver.json";
  std::string reports_dir;
  if (const char* s = std::getenv("DNC_BENCH_REPORTS"); s && *s) {
    reports_dir = s;
    if (::mkdir(reports_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot create DNC_BENCH_REPORTS dir %s\n", reports_dir.c_str());
      reports_dir.clear();
    }
  }
  const std::vector<index_t> sizes = bench::size_sweep(nmax, 3);
  const char* drivers[] = {"sequential", "taskflow", "lapack_model", "scalapack_model",
                           "mrrr"};

  bench::header("bench_solver",
                "driver x family x size timing grid (median over " + std::to_string(reps) +
                    " reps) -> " + out_path);

  std::string js = "{\n  \"schema\": \"dnc-bench-solver-v1\",\n  \"metadata\": {";
  bool first_meta = true;
  for (const auto& [k, v] : bench::machine_metadata()) {
    js += first_meta ? "\n" : ",\n";
    first_meta = false;
    js += "    \"" + rt::json_escape(k) + "\": \"" + rt::json_escape(v) + "\"";
  }
  if (!reports_dir.empty()) {
    js += first_meta ? "\n" : ",\n";
    first_meta = false;
    js += "    \"reports_dir\": \"" + rt::json_escape(reports_dir) + "\"";
  }
  js += "\n  },\n  \"entries\": [";

  // The fp32 fast path rides the same grid so the fp32-vs-fp64 trajectory
  // is a recorded series (acceptance: >= 1.5x median on the GEMM-bound
  // n >= 512 cells). F32RefineF64 is an alias of F64 and has no cells.
  constexpr struct { Precision prec; const char* name; } kPrecisions[] = {
      {Precision::F64, "f64"}, {Precision::F32, "f32"}};

  bool first_entry = true;
  std::printf("%-16s %-12s %-5s %6s %12s %12s\n", "driver", "family", "prec", "n",
              "median(s)", "iqr(s)");
  for (const char* driver : drivers) {
    for (const Family& fam : kFamilies) {
      for (const auto& [prec, prec_name] : kPrecisions) {
        for (const index_t n : sizes) {
          const matgen::Tridiag t = matgen::table3_matrix(fam.type, n);
          dc::Options opt = bench::scaled_options(n);
          opt.precision = prec;
          obs::SolveReport rep;
          run_once(driver, fam.name, t, opt, rep);  // warmup, untimed
          std::vector<double> secs;
          secs.reserve(static_cast<std::size_t>(reps));
          for (int r = 0; r < reps; ++r)
            secs.push_back(run_once(driver, fam.name, t, opt, rep));
          const Quartiles q = quartiles(secs);
          append_entry(js, first_entry, driver, fam, prec_name, n, reps, q, rep);
          if (!reports_dir.empty()) {
            const std::string path =
                reports_dir + "/" +
                obs::bench_report_filename(driver, fam.name, prec_name,
                                           static_cast<long>(n));
            std::ofstream rf(path);
            if (rf)
              rf << rep.to_json();
            else
              std::fprintf(stderr, "cannot write %s\n", path.c_str());
          }
          std::printf("%-16s %-12s %-5s %6ld %12.6f %12.6f\n", driver, fam.name, prec_name,
                      static_cast<long>(n), q.median, q.q3 - q.q1);
          std::fflush(stdout);
        }
      }
    }
  }
  js += "\n  ]\n}\n";

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  f << js;
  std::printf("wrote %s\n", out_path);
  return 0;
}
