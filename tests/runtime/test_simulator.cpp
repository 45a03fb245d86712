// The DAG replay simulator (obs::replay_trace) on measured runtime traces,
// plus the DOT and trace renderers.
#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/analysis.hpp"
#include "runtime/dot.hpp"
#include "runtime/engine.hpp"
#include "runtime/simulator.hpp"

namespace dnc::rt {
namespace {

// Builds a graph where every task sleeps ~1ms so simulated durations are
// meaningful.
void busy_work() {
  const double t0 = dnc::now_seconds();
  while (dnc::now_seconds() - t0 < 0.0005) {
  }
}

TEST(Simulator, ChainHasNoSpeedup) {
  TaskGraph g;
  Runtime rt(g, 1);
  Handle h;
  for (int i = 0; i < 20; ++i) g.submit(0, busy_work, {{&h, Access::InOut}});
  rt.wait_all();
  const auto s1 = obs::replay_trace(rt.trace(), 1);
  const auto s8 = obs::replay_trace(rt.trace(), 8);
  EXPECT_NEAR(s8.makespan, s1.makespan, 1e-9);
  EXPECT_NEAR(s1.critical_path, s1.total_work, 1e-9);
}

TEST(Simulator, IndependentTasksScaleLinearly) {
  TaskGraph g;
  Runtime rt(g, 1);
  Handle h;
  for (int i = 0; i < 64; ++i) g.submit(0, busy_work, {{&h, Access::GatherV}});
  rt.wait_all();
  const auto s1 = obs::replay_trace(rt.trace(), 1);
  const auto s8 = obs::replay_trace(rt.trace(), 8);
  // Measured busy-wait durations vary (especially on a loaded single-core
  // container), so allow generous slack around the ideal 8x.
  EXPECT_GT(s1.makespan / s8.makespan, 4.0);
  EXPECT_LT(s1.makespan / s8.makespan, 8.2);
}

TEST(Simulator, MakespanBounds) {
  // For any graph: critical_path <= makespan <= total_work, and
  // makespan >= total_work / P.
  TaskGraph g;
  Runtime rt(g, 1);
  Handle a, b;
  for (int i = 0; i < 10; ++i) g.submit(0, busy_work, {{&a, Access::InOut}});
  for (int i = 0; i < 30; ++i) g.submit(0, busy_work, {{&b, Access::GatherV}});
  rt.wait_all();
  for (int p : {1, 2, 4, 16}) {
    const auto s = obs::replay_trace(rt.trace(), p);
    EXPECT_GE(s.makespan + 1e-12, s.critical_path);
    EXPECT_LE(s.makespan, s.total_work + 1e-12);
    EXPECT_GE(s.makespan + 1e-12, s.total_work / p);
  }
}

TEST(Simulator, MemoryBoundTasksStagnate) {
  TaskGraph g;
  const KindId copy = g.register_kind("copy", /*memory_bound=*/true);
  Runtime rt(g, 1);
  Handle h;
  for (int i = 0; i < 64; ++i) g.submit(copy, busy_work, {{&h, Access::GatherV}});
  rt.wait_all();
  MachineModel mm;  // 2 sockets x 4 streams
  const auto s1 = obs::replay_trace(rt.trace(), 1, mm);
  const auto s16 = obs::replay_trace(rt.trace(), 16, mm);
  const double speedup = s1.makespan / s16.makespan;
  // Bandwidth-capped: cannot reach anywhere near 16x.
  EXPECT_LT(speedup, 10.0);
  EXPECT_GT(speedup, 2.0);
}

TEST(Simulator, SingleWorkerEqualsTotalWork) {
  TaskGraph g;
  Runtime rt(g, 1);
  Handle a;
  for (int i = 0; i < 15; ++i) g.submit(0, busy_work, {{&a, Access::GatherV}});
  rt.wait_all();
  const auto s = obs::replay_trace(rt.trace(), 1);
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
  const std::string json = rt.trace().chrome_trace_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"LAED4\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Each of the 4 tasks appears once.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("LAED4", pos)) != std::string::npos) {
    ++count;
    pos += 5;
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
  const std::string json = s.schedule.chrome_trace_json();
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

}  // namespace
}  // namespace dnc::rt
