// Solve-history archive tests: the report's family and derived numbers,
// the append/load report round trip, old-record and unparseable lines
// skipped and counted, lines of older builds loaded without the keys they
// no longer carry, rotation at kMaxBytes, key parsing/filtering, the
// per-commit trend view, which telemetry consumer reaches the archive and
// the ring, the cross-solve view `dnc metrics` renders from an archive,
// and the report fields a reused SolveStats must not carry over.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <string>
#include <vector>

#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_io.hpp"

namespace dnc {
namespace {

namespace hist = obs::history;

/// Points DNC_HISTORY at a per-test temp file and restores the caller's
/// environment (and the module singletons) afterwards.
class HistoryTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {"DNC_HISTORY", "DNC_FLIGHT"};
  void SetUp() override {
    for (const char* var : kVars) {
      const char* v = std::getenv(var);
      saved_.emplace_back(var, v ? std::string(v) : std::string());
      saved_set_.push_back(v != nullptr);
      ::unsetenv(var);
    }
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "dnc_history_" + info->name() + "_" +
             std::to_string(::getpid()) + ".jsonl";
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
    hist::refresh_from_env();
    obs::flight::reset_for_tests();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_set_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
    hist::refresh_from_env();
    obs::flight::reset_for_tests();
  }

  void enable() {
    ::setenv("DNC_HISTORY", path_.c_str(), 1);
    hist::refresh_from_env();
  }

  std::string path_;
  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> saved_set_;
};

obs::SolveReport sample_report(const char* driver = "taskflow", long n = 1000,
                               const char* commit = "abc123") {
  obs::SolveReport rep;
  rep.driver = driver;
  rep.n = n;
  rep.threads = 4;
  rep.seconds = 0.25;
  rep.git_commit = commit;
  rep.timestamp = "2026-08-09T12:00:00Z";
  rep.hostname = "testhost";
  rep.has_scheduler = true;
  rep.scheduler.workers = 4;
  rep.scheduler.makespan = 0.24;
  rep.scheduler.total_idle = 0.1;
  obs::MergeRecord m;
  m.m = 100;
  m.k = 40;  // 60% deflated
  rep.merges.push_back(m);
  rep.counters[obs::kGemmFlops] = 1000000000;  // 4 GF/s at 0.25 s
  return rep;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Solves in the flight recorder's ring: one ring_jsonl() line each.
long ring_lines() {
  const std::string ring = obs::flight::ring_jsonl();
  return static_cast<long>(std::count(ring.begin(), ring.end(), '\n'));
}

TEST_F(HistoryTest, DisabledByDefault) {
  EXPECT_FALSE(hist::enabled());
  EXPECT_FALSE(hist::append(sample_report()));
}

TEST_F(HistoryTest, ReportCarriesFamilyAndDerivedNumbers) {
  obs::SolveReport rep = sample_report();
  rep.family = "deflate20";
  EXPECT_EQ(rep.precision, "f64");
  EXPECT_EQ(rep.workers(), 4);
  EXPECT_NEAR(rep.deflated_fraction(), 0.6, 1e-12);
  EXPECT_NEAR(rep.gemm_gflops(), 4.0, 1e-9);
  // The zero guards: no scheduler falls back to threads (at least 1), no
  // merged columns or no time is 0, never a division by zero.
  obs::SolveReport bare;
  EXPECT_EQ(bare.workers(), 1);
  bare.threads = 3;
  EXPECT_EQ(bare.workers(), 3);
  EXPECT_EQ(bare.deflated_fraction(), 0.0);
  bare.counters[obs::kGemmFlops] = 1000;
  EXPECT_EQ(bare.gemm_gflops(), 0.0);
  // The family is an identity field of the report JSON.
  obs::SolveReport back;
  ASSERT_TRUE(obs::parse_solve_report(rep.to_json(), back));
  EXPECT_EQ(back.family, "deflate20");
}

TEST_F(HistoryTest, AppendLoadRoundTrip) {
  enable();
  ASSERT_TRUE(hist::enabled());
  obs::SolveReport rep = sample_report("taskflow", 1000);
  rep.family = "deflate20";
  rep.precision = "f32";
  rep.simd_isa = "avx2";
  rep.build_type = "Release";
  rep.counters[obs::kLaed4Calls] = 77;
  rep.counters[obs::kSturmSteps] = 12345;
  rep.merges[0].level = 2;
  rep.merges[0].n1 = 50;
  rep.merges[0].ctot[0] = 10;
  rep.merges[0].ctot[1] = 20;
  rep.merges[0].ctot[2] = 10;
  rep.merges[0].ctot[3] = 60;
  rep.merges[0].t_end = 0.125;
  rep.scheduler.tasks = 321;
  rep.scheduler.steals = 9;
  rep.has_health = true;
  rep.health.sampled_columns = 8;
  rep.health.max_rel_residual = 1.5e-15;
  rep.health.max_ortho_error = 2.5e-16;
  rep.memory.workspace_bytes = 4096;
  ASSERT_TRUE(hist::append(rep));
  ASSERT_TRUE(hist::append(sample_report("sequential", 500)));

  std::vector<obs::SolveReport> reps;
  std::string err;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path_, reps, &err, &skipped)) << err;
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(reps.size(), 2u);
  // Every field comes back: the archive line is the report's own JSON.
  EXPECT_EQ(reps[0].to_json(), rep.to_json());
  const obs::SolveReport& r = reps[0];
  EXPECT_EQ(r.driver, "taskflow");
  EXPECT_EQ(r.family, "deflate20");
  EXPECT_EQ(r.precision, "f32");
  EXPECT_EQ(r.git_commit, "abc123");
  EXPECT_EQ(r.timestamp, "2026-08-09T12:00:00Z");
  EXPECT_EQ(r.hostname, "testhost");
  EXPECT_EQ(r.n, 1000);
  EXPECT_EQ(r.workers(), 4);
  EXPECT_NEAR(r.seconds, 0.25, 1e-12);
  EXPECT_EQ(r.counters, rep.counters);
  ASSERT_EQ(r.merges.size(), 1u);
  EXPECT_EQ(r.merges[0].ctot[3], 60);
  EXPECT_NEAR(r.scheduler.makespan, 0.24, 1e-12);
  EXPECT_EQ(r.scheduler.tasks, 321);
  EXPECT_TRUE(r.has_health);
  EXPECT_EQ(r.health.max_rel_residual, 1.5e-15);
  EXPECT_NEAR(r.deflated_fraction(), 0.6, 1e-12);
  EXPECT_NEAR(r.gemm_gflops(), 4.0, 1e-9);
  EXPECT_EQ(reps[1].driver, "sequential");
  EXPECT_EQ(reps[1].n, 500);
  EXPECT_TRUE(reps[1].family.empty());
}

TEST_F(HistoryTest, OldRecordLinesAreSkippedAndCounted) {
  enable();
  ASSERT_TRUE(hist::append(sample_report()));
  {
    // A dnc-history-v1 record from before archive lines were reports. It
    // carries a driver and n but no counters: loading it would make a
    // half-filled report (workers 0, deflation 0 %), so it is skipped.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"schema\": \"dnc-history-v1\", \"git_commit\": \"def456\", "
        "\"timestamp\": \"2026-08-01T08:00:00Z\", \"hostname\": \"oldhost\", "
        "\"driver\": \"taskflow\", \"family\": \"type4\", \"precision\": \"f32\", "
        "\"n\": 600, \"workers\": 4, \"seconds\": 0.125000000, \"makespan\": 0.120000000, "
        "\"total_idle\": 0.050000000, \"deflated_fraction\": 0.250000, \"gemm_gflops\": 3.500, "
        "\"max_rel_residual\": 1.500e-15, \"sched_policy\": \"central\", \"tuned\": true, "
        "\"tune" "_entry\": \"n=600 nb=96\"}\n",
        f);
    std::fclose(f);
  }
  std::vector<obs::SolveReport> reps;
  long skipped = 0;
  ASSERT_TRUE(hist::load_file(path_, reps, nullptr, &skipped));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].git_commit, "abc123");
  EXPECT_EQ(skipped, 1);
}

TEST_F(HistoryTest, UnparseableLinesAreSkippedAndCounted) {
  enable();
  ASSERT_TRUE(hist::append(sample_report()));
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not json\n{\"x\": 1}\n", f);
    std::fclose(f);
  }
  ASSERT_TRUE(hist::append(sample_report()));
  std::vector<obs::SolveReport> reps;
  long skipped = 0;
  ASSERT_TRUE(hist::load_file(path_, reps, nullptr, &skipped));
  EXPECT_EQ(reps.size(), 2u);
  EXPECT_EQ(skipped, 2);
}

TEST_F(HistoryTest, OutOfRangeIntegerLinesAreSkippedAndCounted) {
  enable();
  ASSERT_TRUE(hist::append(sample_report()));
  {
    // A report line whose n no long can hold: it must be refused, not cast.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"driver\":\"taskflow\",\"n\":1e30,\"threads\":1,\"counters\":{}}\n", f);
    std::fclose(f);
  }
  std::vector<obs::SolveReport> reps;
  long skipped = 0;
  ASSERT_TRUE(hist::load_file(path_, reps, nullptr, &skipped));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].n, 1000);
  EXPECT_EQ(skipped, 1);
}

// Builds before the steal-locality split was dropped wrote three steal-class
// counters into the scheduler block of every report and into each worker's
// dnc_meta counters. A history line and
// a Perfetto trace of that format still load, and what they re-emit no
// longer carries those keys.
TEST_F(HistoryTest, DroppedStealLocalityKeysAreIgnored) {
  const std::string sched =
      "\"scheduler\":{\"workers\":2,\"tasks\":9,\"makespan\":0.0003,\"max_queue_depth\":1,"
      "\"steals\":3,\"steal_attempts\":5,\"failed_steals\":7,\"local_pops\":6,"
      "\"placed_max\":1,\"placed_min\":1,\"steals_same_l3\":3,\"steals_same_socket\":0,"
      "\"steals_cross_socket\":0,\"child_tasks\":0}";
  const std::string report = "{\"driver\":\"taskflow\",\"n\":40,\"threads\":2,"
                             "\"counters\":{\"gemm_calls\":4},\"has_scheduler\":true," +
                             sched + "}";
  const auto carries_dropped_keys = [](const std::string& json) {
    return json.find("steals_same_") != std::string::npos ||
           json.find("steals_cross_socket") != std::string::npos;
  };

  enable();
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs((report + "\n").c_str(), f);
    std::fclose(f);
  }
  std::vector<obs::SolveReport> reps;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path_, reps, nullptr, &skipped));
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].scheduler.steals, 3);
  EXPECT_EQ(reps[0].scheduler.local_pops, 6);
  EXPECT_FALSE(carries_dropped_keys(reps[0].to_json())) << reps[0].to_json();

  const std::string trace_json =
      "[{\"name\":\"dnc_meta\",\"ph\":\"M\",\"pid\":1,\"args\":{\"workers\":2,"
      "\"sched_counters\":[{\"executed\":5,\"local_pops\":4,\"steals\":1,"
      "\"steal_attempts\":2,\"failed_steals\":3,\"placed\":1,\"steals_same_l3\":1,"
      "\"steals_same_socket\":0,\"steals_cross_socket\":0},{\"executed\":4,"
      "\"local_pops\":2,\"steals\":2,\"steal_attempts\":3,\"failed_steals\":4,"
      "\"placed\":0,\"steals_same_l3\":2,\"steals_same_socket\":0,"
      "\"steals_cross_socket\":0}]}},"
      "{\"name\":\"dnc_report\",\"ph\":\"M\",\"pid\":1,\"args\":" +
      report +
      "},"
      "{\"name\":\"A\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":5,"
      "\"args\":{\"task\":1}}]";
  rt::Trace trace;
  obs::SolveReport loaded;
  std::string err;
  ASSERT_TRUE(obs::load_perfetto_trace(trace_json, trace, &err, &loaded)) << err;
  ASSERT_EQ(trace.sched_counters.size(), 2u);
  EXPECT_EQ(trace.sched_counters[1].steals, 2);
  EXPECT_EQ(loaded.scheduler.steals, 3);
  EXPECT_FALSE(carries_dropped_keys(loaded.to_json())) << loaded.to_json();
  const std::string reemitted = obs::perfetto_trace_json(trace, &loaded);
  EXPECT_FALSE(carries_dropped_keys(reemitted)) << reemitted;
}

TEST_F(HistoryTest, RotationAtSizeCap) {
  enable();
  // A sparse file of exactly the cap: the next append rotates it away
  // without this test writing 16 MiB.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ASSERT_EQ(::truncate(path_.c_str(), hist::kMaxBytes), 0);
  const obs::SolveReport rep = sample_report();
  ASSERT_TRUE(hist::append(rep));
  EXPECT_TRUE(std::ifstream(path_ + ".1").good()) << "the full generation moved to .1";
  EXPECT_EQ(slurp(path_), obs::flight::compact_json(rep.to_json()) + "\n");
}

TEST_F(HistoryTest, TelemetryWithoutFlightAppendsOnlyToArchive) {
  obs::record_solve_telemetry(sample_report(), nullptr);  // disabled: nowhere
  EXPECT_EQ(ring_lines(), 0);
  enable();
  obs::record_solve_telemetry(sample_report(), nullptr);
  EXPECT_EQ(ring_lines(), 0);
  std::vector<obs::SolveReport> reps;
  ASSERT_TRUE(hist::load_file(path_, reps));
  EXPECT_EQ(reps.size(), 1u);  // only the post-enable solve hit the file
  EXPECT_EQ(reps[0].driver, "taskflow");
}

TEST(HistoryKey, ParseAndMatch) {
  hist::Key key;
  std::string err;
  ASSERT_TRUE(hist::parse_key("n=1000,family=deflate20,driver=taskflow,prec=f64", key, &err))
      << err;
  EXPECT_EQ(key.n, 1000);
  EXPECT_EQ(key.family, "deflate20");
  EXPECT_EQ(key.driver, "taskflow");
  EXPECT_EQ(key.precision, "f64");

  obs::SolveReport r;
  r.driver = "taskflow";
  r.family = "deflate20";
  r.precision = "f64";
  r.n = 1000;
  EXPECT_TRUE(key.matches(r));
  r.n = 500;
  EXPECT_FALSE(key.matches(r));

  EXPECT_TRUE(hist::parse_key("", key, &err));  // empty = match-all
  EXPECT_TRUE(key.matches(r));
  EXPECT_FALSE(hist::parse_key("bogus=1", key, &err));
  EXPECT_NE(err.find("unknown key field"), std::string::npos);
  EXPECT_FALSE(hist::parse_key("n=abc", key, &err));
  EXPECT_FALSE(hist::parse_key("noequals", key, &err));
  // A number is all of the value: no trailing garbage, no other notation.
  for (const char* bad : {"n=1000x", "n=1e3", "n=-5", "n=", "workers=4x", "workers=0",
                          "workers=99999999999"}) {
    SCOPED_TRACE(bad);
    err.clear();
    EXPECT_FALSE(hist::parse_key(bad, key, &err));
    EXPECT_NE(err.find("wants a positive integer, got '"), std::string::npos) << err;
  }
  ASSERT_TRUE(hist::parse_key("workers=8", key, &err)) << err;
  EXPECT_EQ(key.workers, 8);
}

TEST(HistoryQuery, SeriesAndLatestPerCommit) {
  std::vector<obs::SolveReport> recs;
  const auto rec = [](const char* commit, const char* driver, long n, double secs) {
    obs::SolveReport r;
    r.git_commit = commit;
    r.driver = driver;
    r.n = n;
    r.seconds = secs;
    return r;
  };
  recs.push_back(rec("c1", "taskflow", 1000, 0.5));
  recs.push_back(rec("c1", "taskflow", 1000, 0.4));   // newer c1 reading
  recs.push_back(rec("c1", "sequential", 1000, 0.9)); // other driver
  recs.push_back(rec("c2", "taskflow", 1000, 0.6));
  recs.push_back(rec("c2", "taskflow", 500, 0.1));    // other n

  hist::Key key;
  ASSERT_TRUE(hist::parse_key("driver=taskflow,n=1000", key));
  const std::vector<obs::SolveReport> ser = hist::series(recs, key);
  ASSERT_EQ(ser.size(), 3u);
  EXPECT_NEAR(ser[0].seconds, 0.5, 1e-12);
  EXPECT_NEAR(ser[2].seconds, 0.6, 1e-12);

  const std::vector<obs::SolveReport> per_commit = hist::latest_per_commit(recs, key);
  ASSERT_EQ(per_commit.size(), 2u);
  EXPECT_EQ(per_commit[0].git_commit, "c1");
  EXPECT_NEAR(per_commit[0].seconds, 0.4, 1e-12);  // newest c1 wins
  EXPECT_EQ(per_commit[1].git_commit, "c2");
  EXPECT_NEAR(per_commit[1].seconds, 0.6, 1e-12);

  const std::string rendered = hist::render_series(ser, "driver=taskflow,n=1000");
  EXPECT_NE(rendered.find("3 records"), std::string::npos);
  EXPECT_NE(rendered.find("taskflow"), std::string::npos);
  EXPECT_NE(rendered.find("median"), std::string::npos);
  EXPECT_NE(hist::render_series({}, "empty").find("no matching records"),
            std::string::npos);
}

// --- the archive view (`dnc metrics`) -----------------------------------------

/// The archive view's tests: the same temp-file archive as HistoryTest.
using MetricsTest = HistoryTest;

TEST_F(MetricsTest, SolveRecordsCoreSeries) {
  enable();
  matgen::Tridiag t = matgen::table3_matrix(10, 260);
  Matrix v;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);

  ASSERT_TRUE(st.report.has_health);
  EXPECT_GT(st.report.health.sampled_columns, 0);
  EXPECT_LT(st.report.health.max_rel_residual, 1e-10);
  EXPECT_LT(st.report.health.max_ortho_error, 1e-10);

  std::vector<obs::SolveReport> reps;
  ASSERT_TRUE(hist::load_file(path_, reps));
  ASSERT_EQ(reps.size(), 1u);
  const std::vector<hist::MetricsRow> rows = hist::metrics_rows(reps, {});
  ASSERT_EQ(rows.size(), 1u);
  const hist::MetricsRow& r = rows[0];
  EXPECT_EQ(r.driver, "taskflow");
  EXPECT_EQ(r.precision, "f64");
  EXPECT_EQ(r.size_class, "s");
  EXPECT_EQ(r.solves, 1);
  EXPECT_EQ(r.p50, reps[0].seconds);
  EXPECT_EQ(r.p99, reps[0].seconds);
  EXPECT_EQ(r.max_rel_residual, st.report.health.max_rel_residual);
  ASSERT_TRUE(st.report.has_scheduler);
  EXPECT_EQ(r.tasks, st.report.scheduler.tasks);
  EXPECT_GT(r.tasks, 0);

  const std::string text = hist::prometheus_text(rows);
  for (const char* needle :
       {"dnc_solves_total{driver=\"taskflow\",precision=\"f64\",size_class=\"s\"} 1\n",
        "dnc_solve_seconds{driver=\"taskflow\",precision=\"f64\",size_class=\"s\",quantile=\"0.5\"}",
        "dnc_deflated_fraction_mean{", "dnc_health_rel_residual_max{",
        "dnc_health_ortho_error_max{", "\ndnc_sched_tasks_total{"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST_F(MetricsTest, SolveWithoutStatsStillRecords) {
  // The telemetry substitute SolveStats kicks in when the caller passes
  // nullptr but the archive is on.
  enable();
  matgen::Tridiag t = matgen::table3_matrix(10, 180);
  Matrix v;
  dc::stedc_sequential(t.n(), t.d.data(), t.e.data(), v, {}, nullptr);
  std::vector<obs::SolveReport> reps;
  ASSERT_TRUE(hist::load_file(path_, reps));
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].driver, "sequential");
  EXPECT_EQ(reps[0].n, 180);
  EXPECT_TRUE(reps[0].has_health);
}

TEST_F(MetricsTest, ArchivedF32RefineLineFormsItsOwnRow) {
  // An archive line written by a build that still ran F32RefineF64 as an
  // fp32 solve plus refinement: precision "f32refine" and a "refine" block
  // this build no longer writes. Archives outlive the builds that wrote
  // them, so the line must still load and keep its own cell in the view.
  enable();
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"driver\":\"taskflow\",\"n\":40,\"threads\":1,\"seconds\":0.001138844,"
        "\"simd_isa\":\"avx512\",\"precision\":\"f32refine\",\"git_commit\":\"1d4bdf1d8f0b\","
        "\"build_type\":\"Release\",\"hostname\":\"testhost\","
        "\"timestamp\":\"2026-10-19T23:11:38Z\",\"family\":\"3\","
        "\"counters\":{\"laed4_calls\":0,\"laed4_iterations\":0,\"laed4_hist_0\":0,"
        "\"laed4_hist_1\":0,\"laed4_hist_2\":0,\"laed4_hist_3\":0,\"laed4_hist_4\":0,"
        "\"laed4_hist_5_6\":0,\"laed4_hist_7_9\":0,\"laed4_hist_10_plus\":0,\"sturm_calls\":0,"
        "\"sturm_steps\":0,\"bisect_ldl_calls\":0,\"bisect_ldl_steps\":0,\"gemm_calls\":0,"
        "\"gemm_flops\":0,\"gemm_packed_bytes\":0},\"deflation\":{\"merges\":0,"
        "\"merged_columns\":0,\"nondeflated\":0,\"deflated\":0,\"deflated_fraction\":0.000000},"
        "\"merges\":[],\"memory\":{\"workspace_bytes\":12800,\"context_bytes\":0,"
        "\"output_bytes\":6400,\"rss_hwm_bytes\":4870144,\"rss_hwm_delta_bytes\":548864},"
        "\"health\":{\"sampled_columns\":16,\"max_rel_residual\":1.4820636352211459e-16,"
        "\"max_ortho_error\":2.7755575615628914e-15},\"refine\":{\"checked\":40,\"refined\":40,"
        "\"iterations\":49,\"broken_clusters\":1},\"has_scheduler\":true,"
        "\"scheduler\":{\"workers\":1,\"tasks\":9,\"makespan\":0.000278325,"
        "\"total_busy\":0.000211226,\"efficiency\":0.758919,\"avg_ready_wait\":0.000007098,"
        "\"max_ready_wait\":0.000057484,\"total_idle\":0.000070061,\"max_queue_depth\":1,"
        "\"steals\":0,\"steal_attempts\":0,\"failed_steals\":7,\"local_pops\":9,"
        "\"placed_max\":1,\"placed_min\":1,\"steals_same_l3\":0,\"steals_same_socket\":0,"
        "\"steals_cross_socket\":0,\"child_tasks\":0}}"
        "\n",
        f);
    std::fclose(f);
  }
  ASSERT_TRUE(hist::append(sample_report("taskflow", 40)));
  std::vector<obs::SolveReport> reps;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path_, reps, nullptr, &skipped));
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].precision, "f32refine");
  EXPECT_EQ(reps[0].precision_bits(), 32);
  EXPECT_EQ(reps[0].n, 40);
  EXPECT_TRUE(reps[0].has_health);
  EXPECT_EQ(reps[0].scheduler.tasks, 9);

  const std::vector<hist::MetricsRow> rows = hist::metrics_rows(reps, {});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].precision, "f32refine");
  EXPECT_EQ(rows[0].solves, 1);
  EXPECT_EQ(rows[1].precision, "f64");
  EXPECT_EQ(rows[1].solves, 1);
  const std::string table = hist::render_metrics("metrics", rows);
  EXPECT_NE(table.find("taskflow        f32refine xs      1 "), std::string::npos) << table;
  EXPECT_NE(table.find("taskflow        f64       xs      1 "), std::string::npos) << table;
}

/// 100 taskflow solves of n = 2000 taking 0.01 .. 1.00 s (in a scrambled
/// order), two fp32 sequential solves of n = 100 and one taskflow solve
/// archived as "f32refine" by an older build.
std::vector<obs::SolveReport> view_reports() {
  std::vector<obs::SolveReport> reps;
  for (int i = 0; i < 100; ++i) {
    obs::SolveReport r = sample_report("taskflow", 2000);
    r.seconds = ((i * 37) % 100 + 1) / 100.0;
    r.scheduler.tasks = 10;
    r.scheduler.steals = 2;
    reps.push_back(r);
  }
  for (double secs : {0.002, 0.001}) {
    obs::SolveReport r = sample_report("sequential", 100);
    r.precision = "f32";
    r.seconds = secs;
    r.has_health = true;
    r.health.max_rel_residual = secs;  // the worst is the larger
    reps.push_back(r);
  }
  obs::SolveReport r = sample_report("taskflow", 2000);
  r.precision = "f32refine";
  reps.push_back(r);
  return reps;
}

TEST_F(MetricsTest, RowsAggregateEachCell) {
  const std::vector<hist::MetricsRow> rows = hist::metrics_rows(view_reports(), {});
  ASSERT_EQ(rows.size(), 3u);
  const hist::MetricsRow& tf = rows[0];
  EXPECT_EQ(tf.driver, "taskflow");
  EXPECT_EQ(tf.precision, "f64");
  EXPECT_EQ(tf.size_class, "m");
  EXPECT_EQ(tf.solves, 100);
  // Exact nearest-rank quantiles of the reports' own seconds.
  EXPECT_EQ(tf.p50, 0.50);
  EXPECT_EQ(tf.p90, 0.90);
  EXPECT_EQ(tf.p99, 0.99);
  EXPECT_NEAR(tf.seconds_sum, 50.5, 1e-9);
  EXPECT_NEAR(tf.deflated_fraction, 0.6, 1e-12);
  EXPECT_NEAR(tf.gemm_gflops, 1.0 / 0.51, 1e-9);  // the 50th smallest of 1/seconds
  EXPECT_EQ(tf.tasks, 1000);
  EXPECT_EQ(tf.steals, 200);
  EXPECT_NEAR(tf.idle_seconds, 10.0, 1e-9);

  const hist::MetricsRow& seq = rows[1];
  EXPECT_EQ(seq.precision, "f32");
  EXPECT_EQ(seq.size_class, "xs");
  EXPECT_EQ(seq.solves, 2);
  EXPECT_EQ(seq.p50, 0.001);
  EXPECT_EQ(seq.p99, 0.002);
  EXPECT_EQ(seq.max_rel_residual, 0.002);
  EXPECT_EQ(rows[2].precision, "f32refine");

  hist::Key key;
  ASSERT_TRUE(hist::parse_key("driver=sequential", key));
  const std::vector<hist::MetricsRow> only = hist::metrics_rows(view_reports(), key);
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].solves, 2);
  EXPECT_TRUE(hist::metrics_rows({}, {}).empty());
}

TEST_F(MetricsTest, PrometheusExposition) {
  const std::string text = hist::prometheus_text(hist::metrics_rows(view_reports(), {}));
  const std::string tf = "{driver=\"taskflow\",precision=\"f64\",size_class=\"m\"";
  const std::string needles[] = {"# TYPE dnc_solves_total counter\n",
                                 "dnc_solves_total" + tf + "} 100\n",
                                 "# TYPE dnc_solve_seconds summary\n",
                                 "dnc_solve_seconds" + tf + ",quantile=\"0.9\"} 0.9",
                                 "dnc_solve_seconds_count" + tf + "} 100\n",
                                 "dnc_sched_tasks_total" + tf + "} 1000\n",
                                 "# TYPE dnc_gemm_gflops_median gauge\n"};
  for (const std::string& needle : needles)
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  // One HELP/TYPE block per family, every row's sample inside it.
  std::size_t types = 0;
  for (std::size_t p = text.find("# TYPE dnc_solves_total"); p != std::string::npos;
       p = text.find("# TYPE dnc_solves_total", p + 1))
    ++types;
  EXPECT_EQ(types, 1u);
  const std::size_t block = text.find("# TYPE dnc_solves_total");
  const std::size_t next = text.find("# HELP", block);
  EXPECT_EQ(std::count(text.begin() + static_cast<long>(block),
                       text.begin() + static_cast<long>(next), '\n'),
            4);  // the TYPE line and three rows
}

TEST_F(MetricsTest, RenderAndDiff) {
  const std::vector<hist::MetricsRow> a = hist::metrics_rows(view_reports(), {});
  const std::string table = hist::render_metrics("metrics: a.jsonl", a);
  EXPECT_EQ(table.rfind("=== metrics: a.jsonl ===\n", 0), 0u) << table;
  EXPECT_NE(table.find("solves"), std::string::npos);
  EXPECT_NE(table.find("taskflow        f64       m     100 "), std::string::npos) << table;
  EXPECT_NE(hist::render_metrics("empty", {}).find("no matching reports"), std::string::npos);

  // b lacks the sequential row and has a row a lacks.
  std::vector<obs::SolveReport> breps = view_reports();
  breps.erase(breps.begin() + 100, breps.begin() + 102);
  breps.push_back(sample_report("mrrr", 5000));
  const std::vector<hist::MetricsRow> b = hist::metrics_rows(breps, {});
  const std::string diff = hist::render_metrics("metrics diff", a, &b);
  EXPECT_NE(diff.find("a taskflow        f64       m     100 "), std::string::npos) << diff;
  EXPECT_NE(diff.find("b taskflow        f64       m     100 "), std::string::npos) << diff;
  EXPECT_NE(diff.find("a sequential      f32       xs      2 "), std::string::npos) << diff;
  EXPECT_NE(diff.find("b (none)\n"), std::string::npos) << diff;
  EXPECT_NE(diff.find("a (none)\nb mrrr"), std::string::npos) << diff;
}

// --- reused SolveStats and report metadata ---------------------------------

TEST(ReportReuse, SecondSolveDoesNotAccumulate) {
  matgen::Tridiag t = matgen::table3_matrix(10, 240);

  dc::SolveStats fresh;
  {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::stedc_taskflow(t.n(), d.data(), e.data(), v, {}, &fresh);
  }

  dc::SolveStats reused;
  reused.report.hwc_backend = "stale";
  reused.report.hwc_slot_names = {"stale"};
  reused.report.has_health = true;
  reused.report.health.max_rel_residual = 123.0;
  for (int run = 0; run < 2; ++run) {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::stedc_taskflow(t.n(), d.data(), e.data(), v, {}, &reused);
  }

  // Every accumulated report field matches a single fresh run: merge
  // records, counters, scheduler metrics, hwc attribution.
  EXPECT_EQ(reused.report.merges.size(), fresh.report.merges.size());
  EXPECT_EQ(reused.merges, fresh.merges);
  EXPECT_EQ(reused.leaves, fresh.leaves);
  EXPECT_EQ(reused.report.laed4_hist_total(), fresh.report.laed4_hist_total());
  EXPECT_EQ(reused.report.merged_columns_total(), fresh.report.merged_columns_total());
  EXPECT_EQ(reused.report.has_scheduler, fresh.report.has_scheduler);
  if (reused.report.has_scheduler) {
    EXPECT_EQ(reused.report.scheduler.tasks, fresh.report.scheduler.tasks);
  }
  EXPECT_EQ(reused.report.hwc_backend, fresh.report.hwc_backend);
  EXPECT_EQ(reused.report.hwc_slot_names.size(), fresh.report.hwc_slot_names.size());
  EXPECT_EQ(reused.report.kind_hwc.size(), fresh.report.kind_hwc.size());
  EXPECT_EQ(reused.report.has_health, fresh.report.has_health);
  if (reused.report.has_health) {
    EXPECT_LT(reused.report.health.max_rel_residual, 1e-10);
  }
}

TEST(ReportMetadata, HostnameAndTimestampStamped) {
  EXPECT_FALSE(obs::current_hostname().empty());
  const std::string ts = obs::iso8601_timestamp_utc();
  ASSERT_EQ(ts.size(), 20u) << ts;  // 2026-08-08T12:34:56Z
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');

  matgen::Tridiag t = matgen::table3_matrix(10, 150);
  Matrix v;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);
  EXPECT_EQ(st.report.hostname, obs::current_hostname());
  EXPECT_EQ(st.report.timestamp.size(), 20u);
  const std::string json = st.report.to_json();
  EXPECT_NE(json.find("\"hostname\": \"" + st.report.hostname + "\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp\": \"" + st.report.timestamp + "\""), std::string::npos);
}

}  // namespace
}  // namespace dnc
