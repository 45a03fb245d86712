// Shared declarations of the perfbench program (see README.md in this
// directory): inputs and their cache, per-solve output checks, the solver
// call a workload makes, and the per-layer measurements of a traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"

namespace perfbench {

using dnc::index_t;

/// Table III condition parameter k used for every generated input.
inline constexpr double kCond = 1.0e6;

/// One benchmark input: the tridiagonal plus what the checks need.
struct Problem {
  int type = 0;
  index_t n = 0;
  std::uint64_t seed = 0;
  dnc::matgen::Tridiag t;
  std::vector<double> ref;  ///< independent lapack::sterf eigenvalues, ascending
  double tnorm = 0.0;       ///< ||T||_1
  double gen_s = 0.0;       ///< wall time of the cold generation (kept in the cache)
};

/// Returns table3_matrix(type, n, seed, kCond) from `cache_dir`, generating
/// and storing it first when the file is missing, stale or fails its
/// checksum. Fills the sterf reference and the norm.
Problem load_problem(const std::string& cache_dir, int type, index_t n, std::uint64_t seed);

/// Per-solve check, cheap enough for every timed solve: eigenvalues finite
/// and ascending, within tolerance of the sterf reference, and 16 randomly
/// drawn columns with unit norm and small residual. Returns "" when the
/// output passes, otherwise the first failed test.
std::string quick_check(const Problem& p, const std::vector<double>& lam, const dnc::Matrix& v,
                        dnc::Rng& rng);

/// Full O(n^3) check: the paper's Fig. 9 residual and orthogonality.
struct FullCheck {
  double residual = 0.0;
  double orthogonality = 0.0;
  double seconds = 0.0;
  bool ok = false;
};
FullCheck full_check(const Problem& p, const std::vector<double>& lam, const dnc::Matrix& v,
                     dnc::Precision prec);

enum class Solver { Taskflow, Sequential, Mrrr };

/// What a workload solves with.
struct SolverSpec {
  Solver solver = Solver::Taskflow;
  dnc::Precision precision = dnc::Precision::F64;
  int threads = 1;
};

/// Output buffers reused across solves, as a caller solving in a loop would.
struct SolveOut {
  std::vector<double> lam;
  std::vector<double> e;
  dnc::Matrix v;
};

/// Optional per-solve statistics (the traced run passes them).
struct SolveTrace {
  dnc::dc::SolveStats dc;
  dnc::mrrr::Stats mrrr;
};

/// One solve of `p`; eigenvalues land in out.lam, vectors in out.v.
void solve(const SolverSpec& spec, const Problem& p, SolveOut& out, SolveTrace* trace = nullptr);

/// Named per-layer samples of one traced solve.
using Samples = std::map<std::string, double>;

/// Per-solve layer metrics from the statistics the solvers return.
Samples layer_samples(const SolverSpec& spec, const SolveTrace& st);

/// Roofs and stand-alone probes measured once per traced run.
struct Roofs {
  double gemm_gflops = 0.0;      ///< square fp64 blas::gemm, one thread
  double gemm_gflops_f32 = 0.0;  ///< same in fp32
  double copy_gbps = 0.0;        ///< blas::copy, read + write bytes
  std::uint64_t copy_array_bytes = 0;
  std::uint64_t llc_bytes = 0;
  double ns_per_task = 0.0;  ///< empty-body task through rt::Runtime
};
Roofs measure_roofs(int threads);

/// Last-level cache size in bytes (sysconf, 32 MiB when unknown).
std::uint64_t llc_bytes();

/// Median of a non-empty sample (copies).
double median(std::vector<double> v);

}  // namespace perfbench
