// Solve-history archive tests: the report's family and derived numbers,
// the append/load report round trip, old-record and unparseable lines
// skipped and counted, rotation at kMaxBytes, key parsing/filtering, the
// per-commit trend view, and which telemetry consumer reaches the archive
// and the ring.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"

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
  rep.precision = "f32refine";
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
  EXPECT_EQ(r.precision, "f32refine");
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

}  // namespace
}  // namespace dnc
