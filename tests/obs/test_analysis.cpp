// Trace analytics tests: critical path / parallelism profile / span law /
// replay on a hand-built DAG with known answers, the same analyses on real
// solver traces, and the Perfetto export -> trace_io round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/analysis.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/trace_io.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace dnc {
namespace {

rt::TraceEvent ev(std::uint64_t id, int kind, int worker, double t0, double t1,
                  double t_ready = 0.0) {
  rt::TraceEvent e;
  e.task_id = id;
  e.kind = kind;
  e.worker = worker;
  e.t_start = t0;
  e.t_end = t1;
  e.t_ready = t_ready;
  return e;
}

/// Six-task diamond with a tail: 1(A,1s) and 2(A,2s) feed 3(B,3s) and
/// 4(B,1s) respectively, both feed 5(A,2s), which feeds 6(B,0.5s).
/// Critical path 1->3->5->6 = 6.5 s; T1 = 9.5 s.
rt::Trace diamond_trace() {
  rt::Trace t;
  t.workers = 2;
  t.kind_names = {"A", "B"};
  t.kind_memory_bound = {0, 0};
  t.events.push_back(ev(1, 0, 0, 0.0, 1.0));
  t.events.push_back(ev(2, 0, 1, 0.0, 2.0));
  t.events.push_back(ev(3, 1, 0, 1.0, 4.0, 1.0));
  t.events.push_back(ev(4, 1, 1, 2.0, 3.0, 2.0));
  t.events.push_back(ev(5, 0, 0, 4.0, 6.0, 4.0));
  t.events.push_back(ev(6, 1, 0, 6.0, 6.5, 6.0));
  t.edges = {{1, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 6}};
  return t;
}

TEST(CriticalPath, HandBuiltDagHasKnownSpan) {
  const rt::Trace t = diamond_trace();
  const obs::CriticalPath cp = obs::critical_path(t);
  EXPECT_DOUBLE_EQ(cp.length, 6.5);
  EXPECT_DOUBLE_EQ(cp.total_work, 9.5);
  ASSERT_EQ(cp.chain.size(), 4u);
  EXPECT_EQ(t.events[cp.chain[0]].task_id, 1u);
  EXPECT_EQ(t.events[cp.chain[1]].task_id, 3u);
  EXPECT_EQ(t.events[cp.chain[2]].task_id, 5u);
  EXPECT_EQ(t.events[cp.chain[3]].task_id, 6u);
  ASSERT_EQ(cp.time_by_kind.size(), 2u);
  EXPECT_DOUBLE_EQ(cp.time_by_kind[0], 3.0);  // A: 1.0 + 2.0
  EXPECT_DOUBLE_EQ(cp.time_by_kind[1], 3.5);  // B: 3.0 + 0.5
  const std::string rendered = cp.render(t);
  EXPECT_NE(rendered.find("critical path"), std::string::npos);
  EXPECT_NE(rendered.find('A'), std::string::npos);
}

TEST(CriticalPath, EdgesToUnknownTasksAreIgnored) {
  rt::Trace t = diamond_trace();
  t.edges.push_back({99, 1});  // predecessor never executed
  t.edges.push_back({6, 100});
  const obs::CriticalPath cp = obs::critical_path(t);
  EXPECT_DOUBLE_EQ(cp.length, 6.5);
}

TEST(CriticalPath, EmptyTraceYieldsZero) {
  const obs::CriticalPath cp = obs::critical_path(rt::Trace{});
  EXPECT_EQ(cp.length, 0.0);
  EXPECT_TRUE(cp.chain.empty());
}

TEST(SpanLaw, BoundsMatchHandBuiltDag) {
  const obs::SpanLaw law = obs::span_law(diamond_trace());
  EXPECT_DOUBLE_EQ(law.t1, 9.5);
  EXPECT_DOUBLE_EQ(law.t_inf, 6.5);
  EXPECT_NEAR(law.parallelism, 9.5 / 6.5, 1e-15);
  EXPECT_DOUBLE_EQ(law.lower_bound(1), 9.5);
  EXPECT_DOUBLE_EQ(law.lower_bound(4), 6.5);   // span-dominated
  EXPECT_DOUBLE_EQ(law.upper_bound(2), 9.5 / 2 + 6.5);
  EXPECT_NEAR(law.predicted_speedup(2), 9.5 / 6.5, 1e-15);  // capped by span
}

TEST(ParallelismProfile, HandBuiltDagStepFunction) {
  const obs::ParallelismProfile p = obs::parallelism_profile(diamond_trace());
  EXPECT_EQ(p.max_running, 2);
  EXPECT_DOUBLE_EQ(p.t0, 0.0);
  EXPECT_DOUBLE_EQ(p.t1, 6.5);
  // Integral of the running count over time == total busy time.
  EXPECT_NEAR(p.running_integral, 9.5, 1e-12);
  EXPECT_NEAR(p.avg_running, 9.5 / 6.5, 1e-12);
  const std::string art = p.ascii(60, 8);
  EXPECT_FALSE(art.empty());
  EXPECT_FALSE(p.to_json().empty());
}

TEST(ReplayTrace, MatchesHandComputedSchedule) {
  const rt::Trace t = diamond_trace();
  // One worker: FIFO order 1,2,3,4,5,6 back to back.
  const rt::SimulationResult r1 = obs::replay_trace(t, 1);
  EXPECT_DOUBLE_EQ(r1.makespan, 9.5);
  // Two workers: 1 and 2 in parallel, 3 at 1.0-4.0, 4 at 2.0-3.0, 5 at
  // 4.0-6.0, 6 at 6.0-6.5 -- the span.
  const rt::SimulationResult r2 = obs::replay_trace(t, 2);
  EXPECT_DOUBLE_EQ(r2.makespan, 6.5);
  EXPECT_DOUBLE_EQ(r2.critical_path, 6.5);
}

class SolveTraceTest : public ::testing::Test {
 protected:
  static constexpr index_t kN = 300;
  void SetUp() override {
    matgen::Tridiag t = matgen::table3_matrix(4, kN);
    Matrix v;
    dc::Options opt;
    opt.threads = 2;
    dc::stedc_taskflow(kN, t.d.data(), t.e.data(), v, opt, &stats_, {1, 2, 4, 16});
  }
  dc::SolveStats stats_;
};

TEST_F(SolveTraceTest, CriticalPathAgreesWithSimulator) {
  const obs::CriticalPath cp = obs::critical_path(stats_.trace);
  EXPECT_NEAR(cp.total_work, stats_.trace.total_busy(), 1e-9);
  EXPECT_GT(cp.chain.size(), 4u);
  // The chain must be a dependency chain: execution-ordered, distinct tasks.
  for (std::size_t i = 1; i < cp.chain.size(); ++i)
    EXPECT_LE(stats_.trace.events[cp.chain[i - 1]].t_end,
              stats_.trace.events[cp.chain[i]].t_end);
}

TEST_F(SolveTraceTest, SimulatedHoldsOneReplayPerWorkerCount) {
  const int counts[] = {1, 2, 4, 16};
  ASSERT_EQ(stats_.simulated.size(), 4u);
  const double t1 = stats_.trace.total_busy();
  for (int i = 0; i < 4; ++i) {
    const rt::SimulationResult& sim = stats_.simulated[i];
    EXPECT_EQ(sim.schedule.workers, counts[i]);
    EXPECT_NEAR(sim.total_work, t1, 1e-9);
    // The work/span lower bound of any list schedule.
    EXPECT_GE(sim.makespan + 1e-12, std::max(sim.critical_path, t1 / counts[i]))
        << "workers=" << counts[i];
  }
  // One worker runs the tasks back to back.
  EXPECT_NEAR(stats_.simulated[0].makespan, t1, 1e-9);
}

TEST_F(SolveTraceTest, ProfileIntegralEqualsBusyTime) {
  const obs::ParallelismProfile p = obs::parallelism_profile(stats_.trace);
  EXPECT_NEAR(p.running_integral, stats_.trace.total_busy(),
              1e-9 * std::max(1.0, stats_.trace.total_busy()));
  EXPECT_GE(p.max_running, 1);
  EXPECT_LE(p.max_running, stats_.trace.workers);
  EXPECT_GE(p.max_ready, 0);
}

TEST_F(SolveTraceTest, PerfettoRoundTripPreservesAnalysis) {
  const std::string json = obs::perfetto_trace_json(stats_.trace, &stats_.report);
  rt::Trace loaded;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(json, loaded, &err)) << err;
  EXPECT_EQ(loaded.workers, stats_.trace.workers);
  EXPECT_EQ(loaded.events.size(), stats_.trace.events.size());
  EXPECT_EQ(loaded.edges.size(), stats_.trace.edges.size());
  EXPECT_EQ(loaded.kind_names, stats_.trace.kind_names);

  // Timestamps quantize to 1 ns in the export; analysis results must agree
  // to that precision.
  const obs::CriticalPath cp0 = obs::critical_path(stats_.trace);
  const obs::CriticalPath cp1 = obs::critical_path(loaded);
  EXPECT_NEAR(cp1.length, cp0.length, 1e-6);
  EXPECT_NEAR(cp1.total_work, cp0.total_work, 1e-6);
  EXPECT_EQ(cp1.chain.size(), cp0.chain.size());

  const rt::SimulationResult r0 = obs::replay_trace(stats_.trace, 4);
  const rt::SimulationResult r1 = obs::replay_trace(loaded, 4);
  EXPECT_NEAR(r1.makespan, r0.makespan, 1e-6);
}

TEST_F(SolveTraceTest, PerfettoRoundTripPreservesSchedulerMetadata) {
  // The scheduler's observability -- exact queue-depth peak, per-worker
  // counters, steal counter track, per-task priorities -- must survive
  // export + reload.
  ASSERT_FALSE(stats_.trace.sched_counters.empty());
  ASSERT_GT(stats_.trace.queue_depth_peak, 0);
  const std::string json = obs::perfetto_trace_json(stats_.trace, &stats_.report);
  rt::Trace loaded;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(json, loaded, &err)) << err;

  EXPECT_EQ(loaded.queue_depth_peak, stats_.trace.queue_depth_peak);
  {
    // Traces exported while two scheduler policies existed name theirs in
    // dnc_meta; the member is ignored and everything else still loads.
    std::string legacy = json;
    const std::size_t at = legacy.find("\"queue_depth_peak\"");
    ASSERT_NE(at, std::string::npos);
    legacy.insert(at, "\"sched_policy\":\"central\",");
    rt::Trace old;
    ASSERT_TRUE(obs::load_perfetto_trace(legacy, old, &err)) << err;
    EXPECT_EQ(old.queue_depth_peak, stats_.trace.queue_depth_peak);
    EXPECT_EQ(old.sched_counters.size(), stats_.trace.sched_counters.size());
  }
  ASSERT_EQ(loaded.sched_counters.size(), stats_.trace.sched_counters.size());
  for (std::size_t w = 0; w < loaded.sched_counters.size(); ++w) {
    const rt::WorkerSchedCounters& a = loaded.sched_counters[w];
    const rt::WorkerSchedCounters& b = stats_.trace.sched_counters[w];
    EXPECT_EQ(a.executed, b.executed) << "worker " << w;
    EXPECT_EQ(a.local_pops, b.local_pops) << "worker " << w;
    EXPECT_EQ(a.steals, b.steals) << "worker " << w;
    EXPECT_EQ(a.steal_attempts, b.steal_attempts) << "worker " << w;
    EXPECT_EQ(a.failed_steals, b.failed_steals) << "worker " << w;
    EXPECT_EQ(a.placed, b.placed) << "worker " << w;
  }
  EXPECT_EQ(loaded.steal_samples.size(), stats_.trace.steal_samples.size());

  std::unordered_map<std::uint64_t, int> prio;
  for (const auto& e : stats_.trace.events) prio[e.task_id] = e.priority;
  bool any_nonzero = false;
  for (const auto& e : loaded.events) {
    ASSERT_TRUE(prio.count(e.task_id));
    EXPECT_EQ(e.priority, prio[e.task_id]) << "task " << e.task_id;
    any_nonzero = any_nonzero || e.priority != 0;
  }
  // The taskflow driver annotates joins/levels, so priorities are not all
  // trivially zero and the check above is not vacuous.
  EXPECT_TRUE(any_nonzero);
}

TEST(TraceIo, RoundTripPreservesChildAttribution) {
  // Child slices from spawn_and_wait carry parent / nested-time fields the
  // analyses rely on (is_child() filtering, self_duration); both must
  // survive export + reload so nested traces stay replayable from disk.
  rt::TaskGraph g;
  const rt::KindId kind = g.register_kind("UpdateVect");
  rt::Runtime runtime(g, 2);
  rt::Handle h;
  g.submit(kind,
           [] {
             rt::spawn_and_wait("panel", 6, [](long c) {
               volatile double acc = 0.0;
               for (int i = 0; i < 200; ++i) acc = acc + std::sin(c + i);
             });
           },
           {{&h, rt::Access::InOut}});
  runtime.wait_all();
  const rt::Trace t = runtime.trace();

  const std::string json = obs::perfetto_trace_json(t, nullptr);
  rt::Trace loaded;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(json, loaded, &err)) << err;

  std::unordered_map<std::uint64_t, const rt::TraceEvent*> orig;
  for (const auto& e : t.events) orig[e.task_id] = &e;
  int children = 0;
  for (const auto& e : loaded.events) {
    ASSERT_TRUE(orig.count(e.task_id));
    const rt::TraceEvent& o = *orig[e.task_id];
    EXPECT_EQ(e.parent, o.parent) << "task " << e.task_id;
    EXPECT_EQ(e.is_child(), o.is_child()) << "task " << e.task_id;
    // nested_us quantizes to 1 us in the export.
    EXPECT_NEAR(e.nested, o.nested, 1e-6) << "task " << e.task_id;
    if (e.is_child()) ++children;
  }
  EXPECT_EQ(children, 6);
}

TEST(TraceIo, RejectsGarbage) {
  rt::Trace t;
  std::string err;
  EXPECT_FALSE(obs::load_perfetto_trace("not json", t, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::load_perfetto_trace("{\"traceEvents\": []}", t, &err));
  EXPECT_FALSE(obs::load_perfetto_trace_file("/nonexistent/trace.json", t, &err));
}

// Integer fields the file supplies are range-checked before they become
// ints: an out-of-range value fails the load naming the field, where it
// used to be an undefined cast (a tid of 3e9 dropped its slice from the
// kernel split while the critical path still counted it).
TEST(TraceIo, RejectsOutOfRangeIntegerFields) {
  // One slice, after an optional metadata record.
  const auto trace_of = [](const std::string& meta, const std::string& tid,
                           const std::string& args) {
    return "[" + meta + R"({"name":"A","ph":"X","pid":1,"tid":)" + tid +
           R"(,"ts":0,"dur":5,"args":{"task":1)" + args + "}}]";
  };
  const auto meta_of = [](const std::string& members) {
    return R"({"name":"dnc_meta","ph":"M","pid":1,"args":{)" + members + "}},";
  };
  rt::Trace t;
  obs::SolveReport report;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(trace_of("", "0", ""), t, &err, &report)) << err;
  // A trace without a dnc_report record (another tool's, or an older
  // export) loads, with no report.
  EXPECT_TRUE(report.driver.empty());
  const struct {
    std::string json;
    const char* field;
  } cases[] = {
      {trace_of(meta_of(R"("workers":1e12)"), "0", ""), "\"workers\""},
      {trace_of(meta_of(R"("queue_depth_peak":-4)"), "0", ""), "\"queue_depth_peak\""},
      {trace_of("", "3e9", ""), "\"tid\""},
      {trace_of("", "-1", ""), "\"tid\""},
      {trace_of("", "0", R"(,"level":1e300)"), "\"level\""},
      {trace_of("", "0", R"(,"prio":-3e9)"), "\"prio\""},
      {trace_of(R"({"name":"dnc_report","ph":"M","pid":1,"args":{"driver":"taskflow",)"
                R"("threads":1e12}},)",
                "0", ""),
       "\"threads\""},
      {trace_of(R"({"name":"dnc_edges","ph":"M","pid":1,"args":{"edges":[[-1,1]]}},)", "0", ""),
       "\"edges\""},
      {trace_of("", "0", R"(,"hwc":[1e30,0,0,0])"), "\"hwc\""},
  };
  for (const auto& c : cases) {
    err.clear();
    EXPECT_FALSE(obs::load_perfetto_trace(c.json, t, &err)) << c.json;
    EXPECT_NE(err.find(c.field), std::string::npos) << err;
  }
  // A dnc_report record that is not a report fails the load too.
  EXPECT_FALSE(obs::load_perfetto_trace(
      trace_of(R"({"name":"dnc_report","ph":"M","pid":1,"args":[1]},)", "0", ""), t, &err));
  EXPECT_NE(err.find("dnc_report"), std::string::npos) << err;
}

}  // namespace
}  // namespace dnc
