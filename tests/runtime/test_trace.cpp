#include "runtime/trace.hpp"

#include <gtest/gtest.h>

#include "common/timer.hpp"
#include "obs/perfetto.hpp"
#include "runtime/engine.hpp"

namespace dnc::rt {
namespace {

Trace make_trace() {
  Trace t;
  t.workers = 2;
  t.kind_names = {"Alpha", "Beta"};
  return t;
}

TEST(Trace, EmptyTraceRenders) {
  Trace t;
  EXPECT_EQ(t.makespan(), 0.0);
  EXPECT_EQ(t.total_busy(), 0.0);
  EXPECT_EQ(t.efficiency(), 1.0);
  EXPECT_EQ(t.ascii_gantt(), "(empty trace)\n");
  EXPECT_NE(t.kernel_summary(), "");  // header only, no crash
  const std::string js = obs::perfetto_trace_json(t);
  EXPECT_NE(js.find("process_name"), std::string::npos);
}

TEST(Trace, SingleInstantaneousEvent) {
  Trace t = make_trace();
  t.events.push_back({1, 0, 0, 0.5, 0.5});
  EXPECT_EQ(t.makespan(), 0.0);
  EXPECT_EQ(t.total_busy(), 0.0);
  // Zero-span traces must not divide by zero anywhere.
  const std::string g = t.ascii_gantt(10);
  EXPECT_NE(g.find("w00"), std::string::npos);
  EXPECT_NE(t.kernel_summary().find("Alpha"), std::string::npos);
}

TEST(Trace, GanttWidthClampedToOne) {
  Trace t = make_trace();
  t.events.push_back({1, 0, 0, 0.0, 1.0});
  const std::string g = t.ascii_gantt(0);  // nonpositive width must not crash
  EXPECT_NE(g.find('A'), std::string::npos);
}

TEST(Trace, NeverExecutedEventsExcludedEverywhere) {
  Trace t = make_trace();
  t.events.push_back({1, 0, 0, 1.0, 2.0});
  // worker -1 = submitted but never executed; its garbage stamps must not
  // skew any aggregate.
  t.events.push_back({2, 1, -1, 100.0, 900.0});
  EXPECT_DOUBLE_EQ(t.makespan(), 1.0);
  EXPECT_DOUBLE_EQ(t.total_busy(), 1.0);
  const auto by_kind = t.busy_by_kind();
  EXPECT_DOUBLE_EQ(by_kind[0], 1.0);
  EXPECT_DOUBLE_EQ(by_kind[1], 0.0);
  EXPECT_EQ(t.kernel_summary().find("Beta"), std::string::npos);
  // The kind table in the metadata still names Beta; no slice may.
  EXPECT_EQ(obs::perfetto_trace_json(t).find("\"name\":\"Beta\",\"ph\":\"X\""),
            std::string::npos);
}

TEST(Trace, ChromeJsonEscapesKindNames) {
  Trace t;
  t.workers = 1;
  t.kind_names = {"evil \"kind\"\\name"};
  t.events.push_back({1, 0, 0, 0.0, 1.0});
  const std::string js = obs::perfetto_trace_json(t);
  EXPECT_NE(js.find("evil \\\"kind\\\"\\\\name"), std::string::npos);
  EXPECT_NE(js.find("thread_name"), std::string::npos);
}

TEST(Trace, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

// --- engine-provided scheduler observability ---

TEST(Trace, EngineFillsSchedulerObservability) {
  TaskGraph g;
  Runtime rt(g, 3);
  Handle h;
  for (int i = 0; i < 16; ++i)
    g.submit(0, [] {
      const double t0 = now_seconds();
      while (now_seconds() - t0 < 0.0002) {
      }
    }, {{&h, Access::GatherV}});
  rt.wait_all();
  const Trace t = rt.trace();

  ASSERT_EQ(t.worker_idle.size(), 3u);
  for (double d : t.worker_idle) EXPECT_GE(d, 0.0);

  // Every enqueue and dequeue produces a sample: at least 2 per task.
  EXPECT_GE(t.queue_samples.size(), 2u * 16u);
  for (const auto& s : t.queue_samples) EXPECT_GE(s.depth, 0);

  for (const auto& e : t.events) {
    ASSERT_GE(e.worker, 0);
    EXPECT_GT(e.t_ready, 0.0);
    EXPECT_LE(e.t_ready, e.t_start + 1e-12);
  }
}

TEST(Trace, EngineRecordsDependencyEdges) {
  TaskGraph g;
  Runtime rt(g, 2);
  Handle h;
  for (int i = 0; i < 4; ++i) g.submit(0, [] {}, {{&h, Access::InOut}});
  rt.wait_all();
  const Trace t = rt.trace();
  // A 4-task chain has exactly 3 edges, each (pred, succ) with pred < succ
  // in submission order.
  ASSERT_EQ(t.edges.size(), 3u);
  for (const auto& [p, s] : t.edges) EXPECT_LT(p, s);
}

TEST(Trace, AnnotationsSurfaceInTraceEvents) {
  TaskGraph g;
  Runtime rt(g, 1);
  Handle h;
  g.submit(0, [] {}, {{&h, Access::InOut}})->annotate(3, 128, 7);
  g.submit(0, [] {}, {{&h, Access::InOut}});
  rt.wait_all();
  const Trace t = rt.trace();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].level, 3);
  EXPECT_EQ(t.events[0].size, 128);
  EXPECT_EQ(t.events[0].panel, 7);
  EXPECT_EQ(t.events[1].level, -1);
  EXPECT_EQ(t.events[1].size, -1);
}

}  // namespace
}  // namespace dnc::rt
