// Ablation: the paper's extra-workspace option (Section IV) that lets
// PermuteV run concurrently with LAED4 and CopyBackDeflated with
// ComputeVect, at the price of a second n x n matrix for the secular
// matrices. "In practice, the effect of this option can be seen on a
// machine with large number of cores" -- so we compare simulated makespans
// at several worker counts, next to what each mode allocates and its
// measured wall time on 4 real workers.
#include <algorithm>

#include "bench_support.hpp"

int main() {
  using namespace dnc;
  using namespace dnc::bench;
  const index_t n = nmax_from_env(1200);
  const std::vector<int> workers{4, 16, 32};
  constexpr int kWallWorkers = 4;
  constexpr int kWallRuns = 5;

  header("Ablation: extra workspace overlap (PermuteV || LAED4, CopyBack || ComputeVect)",
         "workspace = report.memory.workspace_bytes of the 4-worker solve; wall = median of " +
             std::to_string(kWallRuns) + " 4-worker solves; sim = 1-worker trace replayed");
  std::printf("%-6s %-10s %12s %12s", "type", "mode", "workspace", "wall(4 thr)");
  for (int w : workers) std::printf("   sim(%2d cores)", w);
  std::printf("\n");
  for (int type : {2, 4}) {
    auto t = matgen::table3_matrix(type, n);
    for (bool extra : {false, true}) {
      dc::Options opt = scaled_options(n);
      opt.extra_workspace = extra;
      auto st = run_taskflow(t, workers, opt);
      opt.threads = kWallWorkers;
      std::vector<double> wall;
      std::uint64_t workspace = 0;
      for (int r = 0; r < kWallRuns; ++r) {
        std::vector<double> d = t.d, e = t.e;
        Matrix v;
        dc::SolveStats ws;
        dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &ws);
        wall.push_back(ws.seconds);
        workspace = ws.report.memory.workspace_bytes;
      }
      std::sort(wall.begin(), wall.end());
      std::printf("%-6d %-10s %8.2f MiB %11.4fs", type, extra ? "extra-ws" : "default",
                  static_cast<double>(workspace) / (1024.0 * 1024.0), wall[kWallRuns / 2]);
      for (std::size_t i = 0; i < workers.size(); ++i)
        std::printf("   %12.4fs", st.simulated[i].makespan);
      std::printf("\n");
    }
  }
  std::printf("\nexpected shape: the extra workspace doubles the n x n scratch; no effect at\n"
              "low core counts, a small makespan win at high core counts, strongest for the\n"
              "memory-bound type 2 where the permute copies sit on the critical path.\n");
  return 0;
}
