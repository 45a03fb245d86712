// The DAG replay simulator (obs::replay_trace) on synthetic traces, plus
// the DOT and trace renderers on measured runtime traces.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/analysis.hpp"
#include "obs/perfetto.hpp"
#include "runtime/dot.hpp"
#include "runtime/engine.hpp"
#include "runtime/simulator.hpp"

namespace dnc::rt {
namespace {

// Busy-waits ~0.5 ms so the renderers get visible task bars.
void busy_work() {
  const double t0 = dnc::now_seconds();
  while (dnc::now_seconds() - t0 < 0.0005) {
  }
}

// A trace of `count` tasks of 0.5 ms each with the given dependency edges,
// laid out back to back on one worker as a 1-thread run records them. The
// replay ratios below are exact on fixed durations; measured busy-wait
// durations skew them whenever the test process is preempted.
Trace synthetic_trace(int count, const std::vector<std::pair<int, int>>& edges,
                      bool memory_bound = false) {
  constexpr double kDuration = 0.0005;
  Trace tr;
  tr.workers = 1;
  tr.kind_names = {"task"};
  tr.kind_memory_bound = {static_cast<char>(memory_bound ? 1 : 0)};
  for (int i = 0; i < count; ++i)
    tr.events.push_back({static_cast<std::uint64_t>(i), 0, 0, i * kDuration, (i + 1) * kDuration});
  for (const auto& [p, s] : edges)
    tr.edges.emplace_back(static_cast<std::uint64_t>(p), static_cast<std::uint64_t>(s));
  return tr;
}

std::vector<std::pair<int, int>> chain(int first, int count) {
  std::vector<std::pair<int, int>> edges;
  for (int i = first; i + 1 < first + count; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

TEST(Simulator, ChainHasNoSpeedup) {
  const Trace tr = synthetic_trace(20, chain(0, 20));
  const auto s1 = obs::replay_trace(tr, 1);
  const auto s8 = obs::replay_trace(tr, 8);
  EXPECT_NEAR(s8.makespan, s1.makespan, 1e-9);
  EXPECT_NEAR(s1.critical_path, s1.total_work, 1e-9);
}

TEST(Simulator, IndependentTasksScaleLinearly) {
  const Trace tr = synthetic_trace(64, {});
  const auto s1 = obs::replay_trace(tr, 1);
  const auto s8 = obs::replay_trace(tr, 8);
  EXPECT_GT(s1.makespan / s8.makespan, 4.0);
  EXPECT_LT(s1.makespan / s8.makespan, 8.2);
}

TEST(Simulator, MakespanBounds) {
  // For any graph: critical_path <= makespan <= total_work, and
  // makespan >= total_work / P. Here a 10-task chain next to 30
  // independent tasks.
  const Trace tr = synthetic_trace(40, chain(0, 10));
  for (int p : {1, 2, 4, 16}) {
    const auto s = obs::replay_trace(tr, p);
    EXPECT_GE(s.makespan + 1e-12, s.critical_path);
    EXPECT_LE(s.makespan, s.total_work + 1e-12);
    EXPECT_GE(s.makespan + 1e-12, s.total_work / p);
  }
}

TEST(Simulator, MemoryBoundTasksStagnate) {
  const Trace tr = synthetic_trace(64, {}, /*memory_bound=*/true);
  MachineModel mm;  // 2 sockets x 4 streams
  const auto s1 = obs::replay_trace(tr, 1, mm);
  const auto s16 = obs::replay_trace(tr, 16, mm);
  const double speedup = s1.makespan / s16.makespan;
  // Bandwidth-capped: cannot reach anywhere near 16x.
  EXPECT_LT(speedup, 10.0);
  EXPECT_GT(speedup, 2.0);
}

TEST(Simulator, SingleWorkerEqualsTotalWork) {
  const Trace tr = synthetic_trace(15, {});
  const auto s = obs::replay_trace(tr, 1);
  EXPECT_NEAR(s.makespan, s.total_work, 1e-9);
  EXPECT_NEAR(s.efficiency, 1.0, 1e-9);
}

TEST(Simulator, InvalidWorkerCountThrows) {
  TaskGraph g;
  EXPECT_THROW(obs::replay_trace(Trace{}, 0), dnc::InvalidArgument);
}

TEST(Dot, ExportContainsNodesAndEdges) {
  TaskGraph g;
  const KindId k = g.register_kind("LAED4", false, "#3333ff");
  Runtime rt(g, 1);
  Handle h;
  g.submit(k, [] {}, {{&h, Access::Out}});
  g.submit(k, [] {}, {{&h, Access::In}});
  rt.wait_all();
  const std::string dot = export_dot(g, "test");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("LAED4"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("#3333ff"), std::string::npos);
}

TEST(TraceRender, GanttAndSummary) {
  TaskGraph g;
  const KindId k = g.register_kind("UpdateVect");
  Runtime rt(g, 2);
  Handle h;
  for (int i = 0; i < 8; ++i) g.submit(k, busy_work, {{&h, Access::GatherV}});
  rt.wait_all();
  const Trace tr = rt.trace();
  const std::string gantt = tr.ascii_gantt(60);
  EXPECT_NE(gantt.find("w00"), std::string::npos);
  const std::string summary = tr.kernel_summary();
  EXPECT_NE(summary.find("UpdateVect"), std::string::npos);
}

TEST(TraceRender, ChromeTraceJson) {
  TaskGraph g;
  const KindId k = g.register_kind("LAED4");
  Runtime rt(g, 2);
  Handle h;
  for (int i = 0; i < 4; ++i) g.submit(k, busy_work, {{&h, Access::GatherV}});
  rt.wait_all();
  const std::string json = obs::perfetto_trace_json(rt.trace());
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"LAED4\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Each of the 4 tasks appears once as a slice (the metadata kind table
  // names LAED4 once more).
  const std::string slice = "\"name\":\"LAED4\",\"ph\":\"X\"";
  std::size_t count = 0, pos = 0;
  while ((pos = json.find(slice, pos)) != std::string::npos) {
    ++count;
    pos += slice.size();
  }
  EXPECT_EQ(count, 4u);
}

TEST(TraceRender, SimulatedScheduleExportable) {
  TaskGraph g;
  Runtime rt(g, 1);
  Handle h;
  for (int i = 0; i < 6; ++i) g.submit(0, busy_work, {{&h, Access::GatherV}});
  rt.wait_all();
  const auto s = obs::replay_trace(rt.trace(), 3);
  EXPECT_EQ(s.schedule.events.size(), 6u);
  EXPECT_EQ(s.schedule.workers, 3);
  const std::string json = obs::perfetto_trace_json(s.schedule);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

}  // namespace
}  // namespace dnc::rt
