// Shared support for the figure/table reproduction benches.
//
// Every bench prints the rows/series the corresponding paper figure plots.
// Sizes default to laptop scale (the paper used up to n=25000 on a 16-core
// Xeon; see DESIGN.md) and are adjustable:
//   DNC_BENCH_NMAX   largest matrix size in sweeps       (default 1536)
//   DNC_BENCH_FAST   set to 1 to shrink everything further (CI mode)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/simd/kernels.hpp"
#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "common/version.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::bench {

/// Machine/configuration metadata stamped into every BENCH_*.json so a
/// recorded number can be traced back to the environment that produced it:
/// build provenance (git commit, build type, sanitizers), thread count, the
/// dispatched SIMD kernel table, and every DNC_* override in effect.
inline std::vector<std::pair<std::string, std::string>> machine_metadata() {
  std::vector<std::pair<std::string, std::string>> kv;
  kv.emplace_back("git_commit", version::kGitCommit);
  kv.emplace_back("build_type", version::kBuildType);
  kv.emplace_back("sanitize", version::kSanitize ? "1" : "0");
  kv.emplace_back("hostname", obs::current_hostname());
  kv.emplace_back("timestamp", obs::iso8601_timestamp_utc());
  kv.emplace_back("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  kv.emplace_back("simd_dispatch", blas::simd::kernels().name);
  kv.emplace_back("precision", precision_name(default_precision()));
  for (const char* var : {"DNC_SIMD", "DNC_HWC", "DNC_PREC", "DNC_HISTORY",
                          "DNC_FLIGHT", "DNC_BENCH_NMAX", "DNC_BENCH_FAST", "DNC_BENCH_REPS",
                          "DNC_TRACE", "OMP_NUM_THREADS"}) {
    const char* val = std::getenv(var);
    kv.emplace_back(var, val ? val : "(unset)");
  }
  return kv;
}

inline index_t nmax_from_env(index_t dflt = 1536) {
  if (const char* s = std::getenv("DNC_BENCH_NMAX")) return std::atol(s);
  if (const char* f = std::getenv("DNC_BENCH_FAST"); f && f[0] == '1') return dflt / 3;
  return dflt;
}

inline std::vector<index_t> size_sweep(index_t nmax, int points = 4) {
  // Geometric-ish sweep ending at nmax, mirroring the paper's 2500..25000.
  // Sizes the 64 floor clips together appear once, so no two bench rows
  // share a (driver, family, precision, n) key.
  std::vector<index_t> sizes;
  for (int i = points; i >= 1; --i) {
    index_t n = nmax;
    for (int j = 1; j < i; ++j) n = n * 2 / 3;
    n = std::max<index_t>(64, n);
    if (sizes.empty() || sizes.back() != n) sizes.push_back(n);
  }
  return sizes;
}

/// Runs the task-flow solver with durations measured on one worker (no
/// timesharing noise on the single-core container) and simulation at the
/// given worker counts.
inline dc::SolveStats run_taskflow(const matgen::Tridiag& t, const std::vector<int>& workers,
                                   dc::Options opt = {}) {
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  opt.threads = 1;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), d.data(), e.data(), v, opt, &st, workers);
  return st;
}

inline dc::SolveStats run_lapack_model(const matgen::Tridiag& t, const std::vector<int>& workers,
                                       dc::Options opt = {}) {
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  opt.threads = 1;
  dc::SolveStats st;
  dc::stedc_lapack_model(t.n(), d.data(), e.data(), v, opt, &st, workers);
  return st;
}

inline dc::SolveStats run_scalapack_model(const matgen::Tridiag& t,
                                          const std::vector<int>& workers,
                                          dc::Options opt = {}) {
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  opt.threads = 1;
  dc::SolveStats st;
  dc::stedc_scalapack_model(t.n(), d.data(), e.data(), v, opt, &st, workers);
  return st;
}

/// Default tuning scaled to the problem (paper: minpart ~ n/4 at n=1000,
/// nb chosen per architecture).
inline dc::Options scaled_options(index_t n) {
  dc::Options opt;
  opt.minpart = std::max<index_t>(48, n / 16);
  opt.nb = std::max<index_t>(48, n / 12);
  return opt;
}

inline void header(const std::string& title, const std::string& what) {
  std::printf("==== %s ====\n%s\n", title.c_str(), what.c_str());
  std::string meta;
  for (const auto& [key, value] : machine_metadata()) {
    if (!meta.empty()) meta += "  ";
    meta += key + "=" + value;
  }
  std::printf("[machine] %s\n", meta.c_str());
}

}  // namespace dnc::bench
