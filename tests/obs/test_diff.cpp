// Differential-observability tests: synthetic trace/report pairs with
// known injected deltas (slower kind, more idle, less deflation, worse
// steal locality, IPC collapse) must be attributed to the right component;
// a self-diff must report "within noise" and never invent a culprit; the
// dnc-diff-v1 JSON and the SolveReport JSON reader must round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/diff.hpp"
#include "obs/report.hpp"
#include "runtime/trace.hpp"

namespace dnc {
namespace {

rt::TraceEvent ev(std::uint64_t id, int kind, int worker, double t0, double t1) {
  rt::TraceEvent e;
  e.task_id = id;
  e.kind = kind;
  e.worker = worker;
  e.t_start = t0;
  e.t_end = t1;
  return e;
}

/// Two workers, two kinds: GEMM (kind 0) back-to-back on worker 0,
/// Secular (kind 1) on worker 1. `gemm_scale` stretches every GEMM task.
rt::Trace two_kind_trace(double gemm_scale) {
  rt::Trace t;
  t.workers = 2;
  t.kind_names = {"GEMM", "Secular"};
  t.kind_memory_bound = {0, 0};
  const double g = 1.0 * gemm_scale;
  t.events.push_back(ev(1, 0, 0, 0.0, g));
  t.events.push_back(ev(2, 0, 0, g, 2.0 * g));
  t.events.push_back(ev(3, 1, 1, 0.0, 0.8));
  t.events.push_back(ev(4, 1, 1, 0.8, 1.6));
  t.edges = {{1, 2}, {3, 4}};
  t.worker_idle = {0.0, 0.0};
  return t;
}

obs::SolveDiff diff_traces(const rt::Trace& a, const rt::Trace& b) {
  obs::DiffSide sa, sb;
  sa.trace = &a;
  sa.label = "a";
  sb.trace = &b;
  sb.label = "b";
  return obs::diff_solves(sa, sb);
}

TEST(SolveDiff, SelfDiffIsWithinNoiseWithNoAttribution) {
  const rt::Trace t = two_kind_trace(1.0);
  const obs::SolveDiff d = diff_traces(t, t);
  EXPECT_FALSE(d.significant);
  EXPECT_NEAR(d.delta, 0.0, 1e-12);
  EXPECT_TRUE(d.top_component.empty());
  EXPECT_DOUBLE_EQ(d.busy_share, 0.0);
  for (const obs::DiffComponent& c : d.components) EXPECT_DOUBLE_EQ(c.share, 0.0);
  EXPECT_NE(d.render().find("within noise"), std::string::npos);
  EXPECT_NE(d.one_paragraph().find("within noise"), std::string::npos);
}

TEST(SolveDiff, SlowerKindCarriesTheDelta) {
  const rt::Trace a = two_kind_trace(1.0);
  const rt::Trace b = two_kind_trace(2.0);  // GEMM 2x slower: makespan 2->4
  const obs::SolveDiff d = diff_traces(a, b);
  EXPECT_TRUE(d.significant);
  EXPECT_NEAR(d.delta, 2.0, 1e-9);
  EXPECT_EQ(d.top_component, "busy:GEMM");
  EXPECT_GT(d.busy_share, 0.4);  // idle also grows (worker 1 waits), but
                                 // busy must carry a substantial share
  ASSERT_FALSE(d.kinds.empty());
  EXPECT_EQ(d.kinds.front().kind, "GEMM");
  EXPECT_NEAR(d.kinds.front().delta(), 2.0, 1e-9);
  // The components are additive: they sum to the delta exactly.
  double sum = 0.0;
  for (const obs::DiffComponent& c : d.components) sum += c.seconds;
  EXPECT_NEAR(sum, d.delta, 1e-9);
}

TEST(SolveDiff, IdleGrowthIsAttributedToSchedIdle) {
  // Reports only: same busy time, B idles 2 s more (per worker 1 s).
  obs::SolveReport a, b;
  a.driver = b.driver = "taskflow";
  a.n = b.n = 1000;
  a.threads = b.threads = 2;
  a.seconds = 2.0;
  b.seconds = 3.0;
  a.has_scheduler = b.has_scheduler = true;
  a.scheduler.workers = b.scheduler.workers = 2;
  a.scheduler.makespan = 2.0;
  b.scheduler.makespan = 3.0;
  a.scheduler.total_busy = b.scheduler.total_busy = 3.6;
  a.scheduler.total_idle = 0.4;
  b.scheduler.total_idle = 2.4;
  obs::DiffSide sa, sb;
  sa.report = &a;
  sb.report = &b;
  const obs::SolveDiff d = obs::diff_solves(sa, sb);
  EXPECT_TRUE(d.significant);
  EXPECT_EQ(d.top_component, "sched_idle");
  EXPECT_LT(d.busy_share, 0.5);
}

TEST(SolveDiff, DeflationDropYieldsNote) {
  obs::SolveReport a, b;
  a.driver = b.driver = "sequential";
  a.n = b.n = 500;
  a.seconds = 1.0;
  b.seconds = 1.5;
  obs::MergeRecord ma;  // A: 80% deflated
  ma.m = 100;
  ma.k = 20;
  a.merges.push_back(ma);
  obs::MergeRecord mb;  // B: 20% deflated
  mb.m = 100;
  mb.k = 80;
  b.merges.push_back(mb);
  obs::DiffSide sa, sb;
  sa.report = &a;
  sb.report = &b;
  const obs::SolveDiff d = obs::diff_solves(sa, sb);
  bool found = false;
  for (const std::string& n : d.notes)
    if (n.find("deflated fraction") != std::string::npos) found = true;
  EXPECT_TRUE(found) << d.render();
  EXPECT_NEAR(d.a.deflated_fraction, 0.8, 1e-12);
  EXPECT_NEAR(d.b.deflated_fraction, 0.2, 1e-12);
}

TEST(SolveDiff, StealLocalityShiftYieldsNote) {
  obs::SolveReport a, b;
  a.driver = b.driver = "taskflow";
  a.n = b.n = 2000;
  a.seconds = 1.0;
  b.seconds = 1.2;
  a.has_scheduler = b.has_scheduler = true;
  a.scheduler.workers = b.scheduler.workers = 8;
  a.scheduler.steals = b.scheduler.steals = 100;
  a.scheduler.steals_cross_socket = 10;
  b.scheduler.steals_cross_socket = 60;
  obs::DiffSide sa, sb;
  sa.report = &a;
  sb.report = &b;
  const obs::SolveDiff d = obs::diff_solves(sa, sb);
  bool found = false;
  for (const std::string& n : d.notes)
    if (n.find("steal locality") != std::string::npos) found = true;
  EXPECT_TRUE(found) << d.render();
}

TEST(SolveDiff, PerKindIpcDeltasUnderPerfBackend) {
  rt::Trace a = two_kind_trace(1.0);
  rt::Trace b = two_kind_trace(2.0);
  for (rt::Trace* t : {&a, &b}) {
    t->hwc_backend = "perf";
    t->hwc_slot_names = {"cycles", "instructions", "llc_misses", "llc_references"};
  }
  // A: GEMM IPC 2.0, B: GEMM IPC 1.0 (same instructions, double the cycles)
  // -- the IPC-collapse note must fire for the leading kind.
  for (rt::TraceEvent& e : a.events)
    if (e.kind == 0) e.hwc = {1000, 2000, 10, 100};
  for (rt::TraceEvent& e : b.events)
    if (e.kind == 0) e.hwc = {2000, 2000, 50, 100};
  for (rt::TraceEvent& e : a.events)
    if (e.kind == 1) e.hwc = {500, 1000, 5, 50};
  for (rt::TraceEvent& e : b.events)
    if (e.kind == 1) e.hwc = {500, 1000, 5, 50};
  const obs::SolveDiff d = diff_traces(a, b);
  ASSERT_FALSE(d.kinds.empty());
  const obs::KindDelta& gemm = d.kinds.front();
  ASSERT_EQ(gemm.kind, "GEMM");
  ASSERT_TRUE(gemm.has_hwc);
  EXPECT_NEAR(gemm.ipc_a, 2.0, 1e-12);
  EXPECT_NEAR(gemm.ipc_b, 1.0, 1e-12);
  EXPECT_NEAR(gemm.miss_rate_a, 0.1, 1e-12);
  EXPECT_NEAR(gemm.miss_rate_b, 0.5, 1e-12);
  bool found = false;
  for (const std::string& n : d.notes)
    if (n.find("IPC") != std::string::npos) found = true;
  EXPECT_TRUE(found) << d.render();
}

TEST(SolveDiff, CriticalPathEnteredKinds) {
  // A: chain 1->2 all GEMM; B: same but a huge Secular task joins the chain.
  rt::Trace a;
  a.workers = 1;
  a.kind_names = {"GEMM", "Secular"};
  a.events.push_back(ev(1, 0, 0, 0.0, 1.0));
  a.events.push_back(ev(2, 0, 0, 1.0, 2.0));
  a.events.push_back(ev(3, 1, 0, 2.0, 2.01));  // negligible share
  a.edges = {{1, 2}, {2, 3}};
  rt::Trace b = a;
  b.events[2].t_end = 4.0;  // Secular now dominates the chain
  const obs::SolveDiff d = diff_traces(a, b);
  EXPECT_TRUE(d.a.has_cp);
  EXPECT_TRUE(d.b.has_cp);
  ASSERT_EQ(d.cp_entered.size(), 1u);
  EXPECT_EQ(d.cp_entered[0], "Secular");
  EXPECT_TRUE(d.cp_left.empty());
}

TEST(SolveDiff, MismatchedIdentityWarnsButStillDiffs) {
  obs::SolveReport a, b;
  a.driver = "sequential";
  b.driver = "taskflow";
  a.n = 500;
  b.n = 1000;
  a.precision = "f64";
  b.precision = "f32";
  a.seconds = 1.0;
  b.seconds = 2.0;
  obs::DiffSide sa, sb;
  sa.report = &a;
  sb.report = &b;
  const obs::SolveDiff d = obs::diff_solves(sa, sb);
  EXPECT_FALSE(d.comparable);
  EXPECT_GE(d.warnings.size(), 3u);  // driver, n, precision
  EXPECT_TRUE(d.significant);       // the diff still computes
}

TEST(SolveDiff, JsonRoundTripsHeadlineNumbers) {
  const rt::Trace a = two_kind_trace(1.0);
  const rt::Trace b = two_kind_trace(2.0);
  const obs::SolveDiff d = diff_traces(a, b);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(d.to_json(), v, &err)) << err;
  EXPECT_EQ(v.member_string("schema", ""), "dnc-diff-v1");
  EXPECT_NEAR(v.member_number("delta_seconds", 0.0), d.delta, 1e-9);
  EXPECT_EQ(v.member_string("top_component", ""), "busy:GEMM");
  const json::Value* comps = v.find("components");
  ASSERT_NE(comps, nullptr);
  ASSERT_TRUE(comps->is_array());
  EXPECT_EQ(comps->array.size(), d.components.size());
  EXPECT_FALSE(v.member_string("paragraph", "").empty());
}

TEST(ParseSolveReport, RoundTripsThroughToJson) {
  obs::SolveReport rep;
  rep.driver = "taskflow";
  rep.n = 1234;
  rep.threads = 8;
  rep.seconds = 0.75;
  rep.precision = "f32";
  rep.git_commit = "abc123";
  rep.timestamp = "2026-08-09T00:00:00Z";
  rep.counters[obs::kGemmFlops] = 42000000;
  obs::MergeRecord m;
  m.level = 1;
  m.m = 100;
  m.n1 = 50;
  m.k = 30;
  m.ctot[0] = 10;
  m.ctot[3] = 70;
  rep.merges.push_back(m);
  rep.has_scheduler = true;
  rep.scheduler.workers = 8;
  rep.scheduler.makespan = 0.7;
  rep.scheduler.total_busy = 5.0;
  rep.scheduler.total_idle = 0.6;
  rep.scheduler.steals = 17;
  rep.scheduler.steals_cross_socket = 3;
  rep.has_health = true;
  rep.health.max_rel_residual = 2.5e-14;
  rep.hwc_backend = "perf";
  rep.hwc_slot_names = {"cycles", "instructions", "llc_misses", "llc_references"};
  obs::KindHwcTotals kt;
  kt.kind = "GEMM";
  kt.tasks = 7;
  kt.seconds = 0.4;
  kt.hwc[0] = 1000;
  kt.hwc[1] = 2000;
  rep.kind_hwc.push_back(kt);

  // The second input is a report written before the tuning-table fields and
  // the scheduler policy were dropped: its "tuning" block and scheduler
  // "policy" member are ignored and every other field still loads.
  std::string legacy = rep.to_json();
  legacy.insert(legacy.find("\"steals\":"), "\"policy\": \"central\",\n    ");
  legacy.insert(legacy.rfind('}'),
                ",\n  \"tuning\": {\n    \"source\": \"tune_table.json\",\n"
                "    \"entry\": \"n=600 nb=96\"\n  }\n");
  for (const std::string& json : {rep.to_json(), legacy}) {
    SCOPED_TRACE(json);
    obs::SolveReport back;
    std::string err;
    ASSERT_TRUE(obs::parse_solve_report(json, back, &err)) << err;
    EXPECT_EQ(back.driver, "taskflow");
    EXPECT_EQ(back.n, 1234);
    EXPECT_EQ(back.threads, 8);
    EXPECT_NEAR(back.seconds, 0.75, 1e-12);
    EXPECT_EQ(back.precision, "f32");
    EXPECT_EQ(back.git_commit, "abc123");
    EXPECT_EQ(back.counter(obs::kGemmFlops), 42000000u);
    ASSERT_EQ(back.merges.size(), 1u);
    EXPECT_EQ(back.merges[0].m, 100);
    EXPECT_EQ(back.merges[0].k, 30);
    EXPECT_EQ(back.merges[0].ctot[3], 70);
    ASSERT_TRUE(back.has_scheduler);
    EXPECT_EQ(back.scheduler.workers, 8);
    EXPECT_EQ(back.scheduler.steals, 17);
    EXPECT_EQ(back.scheduler.steals_cross_socket, 3);
    ASSERT_TRUE(back.has_health);
    EXPECT_NEAR(back.health.max_rel_residual, 2.5e-14, 1e-20);
    EXPECT_EQ(back.hwc_backend, "perf");
    ASSERT_EQ(back.kind_hwc.size(), 1u);
    EXPECT_EQ(back.kind_hwc[0].kind, "GEMM");
    EXPECT_EQ(back.kind_hwc[0].hwc[1], 2000u);

    // And the parsed report diffs against the original as a self-diff.
    obs::DiffSide sa, sb;
    sa.report = &rep;
    sb.report = &back;
    const obs::SolveDiff d = obs::diff_solves(sa, sb);
    EXPECT_FALSE(d.significant);
  }
}

TEST(ParseSolveReport, RejectsNonReports) {
  obs::SolveReport out;
  std::string err;
  EXPECT_FALSE(obs::parse_solve_report("not json", out, &err));
  EXPECT_FALSE(obs::parse_solve_report("[1,2,3]", out, &err));
  EXPECT_FALSE(obs::parse_solve_report("{\"traceEvents\": []}", out, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace dnc
