// Inputs, their on-disk cache, output checks and the solver call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "bench.hpp"
#include "blas/aux.hpp"
#include "common/timer.hpp"
#include "lapack/sterf.hpp"
#include "verify/metrics.hpp"

namespace perfbench {
namespace {

// Cache file: a fixed header, then d (n doubles) and e (n-1 doubles).
constexpr char kMagic[8] = {'D', 'N', 'C', 'T', 'R', 'I', '1', '\0'};

struct Header {
  char magic[8];
  std::int64_t type;
  std::int64_t n;
  std::uint64_t seed;
  double cond;
  double gen_s;
  std::uint64_t checksum;
};

// FNV-1a over the raw bytes of d then e.
std::uint64_t checksum(const dnc::matgen::Tridiag& t) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* vec : {&t.d, &t.e}) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(vec->data());
    for (std::size_t i = 0; i < vec->size() * sizeof(double); ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string cache_path(const std::string& dir, int type, index_t n, std::uint64_t seed) {
  char name[128];
  std::snprintf(name, sizeof name, "t%d_n%ld_s%llu_k%g.bin", type, static_cast<long>(n),
                static_cast<unsigned long long>(seed), kCond);
  return dir + "/" + name;
}

bool read_cached(const std::string& path, Problem& p) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  Header h{};
  bool ok = std::fread(&h, sizeof h, 1, f) == 1 && std::memcmp(h.magic, kMagic, 8) == 0 &&
            h.type == p.type && h.n == p.n && h.seed == p.seed && h.cond == kCond;
  if (ok) {
    p.t.d.resize(p.n);
    p.t.e.resize(p.n - 1);
    ok = std::fread(p.t.d.data(), sizeof(double), p.t.d.size(), f) == p.t.d.size() &&
         std::fread(p.t.e.data(), sizeof(double), p.t.e.size(), f) == p.t.e.size() &&
         checksum(p.t) == h.checksum;
    p.gen_s = h.gen_s;
  }
  std::fclose(f);
  return ok;
}

void write_cached(const std::string& path, const Problem& p) {
  Header h{};
  std::memcpy(h.magic, kMagic, 8);
  h.type = p.type;
  h.n = p.n;
  h.seed = p.seed;
  h.cond = kCond;
  h.gen_s = p.gen_s;
  h.checksum = checksum(p.t);
  // Write a private file and rename it into place, so a concurrent reader
  // never sees a torn file.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return;  // an unwritable cache only costs regeneration
  const bool ok = std::fwrite(&h, sizeof h, 1, f) == 1 &&
                  std::fwrite(p.t.d.data(), sizeof(double), p.t.d.size(), f) == p.t.d.size() &&
                  std::fwrite(p.t.e.data(), sizeof(double), p.t.e.size(), f) == p.t.e.size();
  if (std::fclose(f) == 0 && ok)
    std::filesystem::rename(tmp, path);
  else
    std::filesystem::remove(tmp);
}

}  // namespace

Problem load_problem(const std::string& cache_dir, int type, index_t n, std::uint64_t seed) {
  Problem p;
  p.type = type;
  p.n = n;
  p.seed = seed;
  const std::string path = cache_path(cache_dir, type, n, seed);
  if (!read_cached(path, p)) {
    dnc::Stopwatch sw;
    p.t = dnc::matgen::table3_matrix(type, n, seed, kCond);
    p.gen_s = sw.elapsed();
    std::filesystem::create_directories(cache_dir);
    write_cached(path, p);
  }
  p.ref = p.t.d;
  std::vector<double> e = p.t.e;
  dnc::lapack::sterf(n, p.ref.data(), e.data());
  p.tnorm = std::max(dnc::blas::lanst_one(n, p.t.d.data(), p.t.e.data()), 1e-300);
  return p;
}

std::string quick_check(const Problem& p, const std::vector<double>& lam, const dnc::Matrix& v,
                        dnc::Rng& rng) {
  // Loose enough for every workload (fp64 solves land near 1e-15, the
  // refined fp32 solve near 1e-14), tight enough to catch an fp32-grade or
  // corrupted eigenpair.
  constexpr double kValueTol = 1e-10;
  constexpr double kResidTol = 1e-10;
  constexpr double kNormTol = 1e-8;
  constexpr index_t kSamples = 16;
  const index_t n = p.n;
  if (static_cast<index_t>(lam.size()) != n || v.rows() != n || v.cols() != n)
    return "output shape";
  for (index_t i = 0; i < n; ++i) {
    if (!std::isfinite(lam[i])) return "non-finite eigenvalue";
    if (i > 0 && lam[i] < lam[i - 1]) return "eigenvalues not ascending";
    if (std::fabs(lam[i] - p.ref[i]) > kValueTol * p.tnorm) return "eigenvalue off reference";
  }
  const auto& d = p.t.d;
  const auto& e = p.t.e;
  for (index_t s = 0; s < std::min(kSamples, n); ++s) {
    const index_t j = static_cast<index_t>(rng.uniform_below(n));
    const double* x = v.data() + j * v.ld();
    double resid = 0.0, norm2 = 0.0;
    for (index_t i = 0; i < n; ++i) {
      double r = (d[i] - lam[j]) * x[i];
      if (i > 0) r += e[i - 1] * x[i - 1];
      if (i + 1 < n) r += e[i] * x[i + 1];
      resid = std::max(resid, std::fabs(r));
      norm2 += x[i] * x[i];
    }
    if (!(std::fabs(norm2 - 1.0) <= kNormTol)) return "eigenvector norm";
    if (!(resid <= kResidTol * p.tnorm)) return "eigenpair residual";
  }
  return "";
}

FullCheck full_check(const Problem& p, const std::vector<double>& lam, const dnc::Matrix& v,
                     dnc::Precision prec) {
  // Fig. 9 bounds with head room: fp64 solves reach ~1e-17 / n on both;
  // the refined fp32 solve keeps fp32-level orthogonality by design
  // (lapack/refine.hpp).
  const double resid_tol = 1e-13;
  const double ortho_tol = prec == dnc::Precision::F64 ? 1e-13 : 1e-8;
  FullCheck c;
  dnc::Stopwatch sw;
  c.residual = dnc::verify::reduction_residual(p.t, lam, v);
  c.orthogonality = dnc::verify::orthogonality(v);
  c.seconds = sw.elapsed();
  c.ok = c.residual <= resid_tol && c.orthogonality <= ortho_tol;
  return c;
}

void solve(const SolverSpec& spec, const Problem& p, SolveOut& out, SolveTrace* trace) {
  const index_t n = p.n;
  if (spec.solver == Solver::Mrrr) {
    dnc::mrrr::Options opt;
    opt.threads = spec.threads;
    opt.precision = spec.precision;
    dnc::mrrr::mrrr_solve(n, p.t.d.data(), p.t.e.data(), out.lam, out.v, opt,
                          trace ? &trace->mrrr : nullptr);
    return;
  }
  dnc::dc::Options opt;
  opt.threads = spec.threads;
  opt.precision = spec.precision;
  out.lam.assign(p.t.d.begin(), p.t.d.end());
  out.e.assign(p.t.e.begin(), p.t.e.end());
  dnc::dc::SolveStats* st = trace ? &trace->dc : nullptr;
  if (spec.solver == Solver::Sequential)
    dnc::dc::stedc_sequential(n, out.lam.data(), out.e.data(), out.v, opt, st);
  else
    dnc::dc::stedc_taskflow(n, out.lam.data(), out.e.data(), out.v, opt, st);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
