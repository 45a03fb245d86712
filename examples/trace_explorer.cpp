// Trace explorer: runs the task-flow D&C solver, prints the partition tree,
// a per-kernel time breakdown, an ASCII Gantt chart of the *simulated*
// multi-worker schedule (the solve is measured on one worker and its DAG
// replayed on P virtual workers, so P may exceed the host's cores; see
// DESIGN.md for the DAG-replay methodology) and optionally dumps the task
// DAG in Graphviz DOT format -- the artifacts behind the paper's Figures 1-4.
//
//   ./trace_explorer [n] [type] [workers] [--dot file.dot]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "dc/api.hpp"
#include "dc/partition.hpp"
#include "matgen/tridiag.hpp"
#include "runtime/simulator.hpp"

int main(int argc, char** argv) {
  using namespace dnc;
  index_t n = 0;
  int type = 0;
  int workers = 0;
  const char* dotfile = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc)
      dotfile = argv[++i];
    else if (n == 0)
      n = std::atol(argv[i]);
    else if (type == 0)
      type = std::atoi(argv[i]);
    else
      workers = std::atoi(argv[i]);
  }
  if (n == 0) n = 1000;
  if (type == 0) type = 4;
  if (workers == 0) workers = 16;

  dc::Options opt;
  opt.threads = 1;  // measure task durations without timesharing noise
  opt.minpart = std::max<index_t>(32, n / 8);
  opt.nb = std::max<index_t>(32, n / 8);
  opt.export_dag = dotfile != nullptr;

  // Print the merge tree (Figure 1).
  const dc::Plan plan = dc::build_plan(n, opt.minpart);
  std::printf("D&C merging tree for n=%ld (minpart=%ld):\n", (long)n, (long)opt.minpart);
  for (const auto& node : plan.nodes) {
    std::printf("%*s%s [%ld, %ld)\n", 2 * node.level, "", node.leaf() ? "leaf " : "merge",
                (long)node.i0, (long)(node.i0 + node.m));
  }

  auto t = matgen::table3_matrix(type, n);
  std::vector<double> d = t.d, e = t.e;
  Matrix v;
  dc::SolveStats stats;
  dc::stedc_taskflow(n, d.data(), e.data(), v, opt, &stats, {workers});

  std::printf("\nmatrix type %d, deflation %.1f%%, %zu tasks, 1-core wall %.3fs\n", type,
              100.0 * stats.deflation_ratio, stats.trace.events.size(), stats.seconds);
  std::printf("\nper-kernel breakdown (measured):\n%s\n", stats.trace.kernel_summary().c_str());

  const auto& sim = stats.simulated.front();
  std::printf(
      "simulated %d-worker schedule: makespan %.4fs (speedup %.2fx, efficiency %.0f%%)\n",
      workers, sim.makespan, sim.total_work / sim.makespan, 100.0 * sim.efficiency);
  std::printf("critical path: %.4fs (max speedup %.1fx)\n", sim.critical_path,
              sim.total_work / sim.critical_path);
  std::printf("\nGantt chart of the simulated schedule (letter = kernel initial):\n%s\n",
              sim.schedule.ascii_gantt(100).c_str());

  if (dotfile != nullptr) {
    std::ofstream out(dotfile);
    out << stats.dag_dot;
    std::printf("wrote task DAG (%zu bytes of DOT) to %s\n", stats.dag_dot.size(), dotfile);
  }
  return 0;
}
