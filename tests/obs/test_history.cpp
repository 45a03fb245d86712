// Solve-history archive tests: record distillation (family hint included),
// append/load round trip, size-capped rotation, key parsing/filtering, the
// per-commit trend view, and the in-process ring behind /history.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/history.hpp"
#include "obs/report.hpp"

namespace dnc {
namespace {

namespace hist = obs::history;

/// Points DNC_HISTORY at a per-test temp file and restores the caller's
/// environment (and the module singletons) afterwards.
class HistoryTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {"DNC_HISTORY", "DNC_HISTORY_MAX_BYTES"};
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
    hist::reset_for_tests();
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
    hist::reset_for_tests();
    hist::set_family_hint(nullptr);
  }

  void enable(long max_bytes = 0) {
    ::setenv("DNC_HISTORY", path_.c_str(), 1);
    if (max_bytes > 0)
      ::setenv("DNC_HISTORY_MAX_BYTES", std::to_string(max_bytes).c_str(), 1);
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

TEST_F(HistoryTest, DisabledByDefault) {
  EXPECT_FALSE(hist::enabled());
  EXPECT_FALSE(hist::append(hist::record_from_report(sample_report())));
}

TEST_F(HistoryTest, RecordDistillsReportAndFamilyHint) {
  hist::set_family_hint("deflate20");
  const hist::Record r = hist::record_from_report(sample_report());
  hist::set_family_hint(nullptr);
  EXPECT_EQ(r.driver, "taskflow");
  EXPECT_EQ(r.family, "deflate20");
  EXPECT_EQ(r.precision, "f64");
  EXPECT_EQ(r.n, 1000);
  EXPECT_EQ(r.workers, 4);
  EXPECT_NEAR(r.seconds, 0.25, 1e-12);
  EXPECT_NEAR(r.makespan, 0.24, 1e-12);
  EXPECT_NEAR(r.deflated_fraction, 0.6, 1e-12);
  EXPECT_NEAR(r.gemm_gflops, 4.0, 1e-9);
  // Hint cleared: the next record is family-less.
  EXPECT_TRUE(hist::record_from_report(sample_report()).family.empty());
}

TEST_F(HistoryTest, AppendLoadRoundTrip) {
  enable();
  ASSERT_TRUE(hist::enabled());
  hist::set_family_hint("deflate20");
  ASSERT_TRUE(hist::append(hist::record_from_report(sample_report("taskflow", 1000))));
  ASSERT_TRUE(hist::append(hist::record_from_report(sample_report("sequential", 500))));
  hist::set_family_hint(nullptr);
  {
    // An archive line from before the tuning-table fields and the scheduler
    // policy were dropped: the extra keys are ignored and every other field
    // still loads.
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
  std::vector<hist::Record> recs;
  std::string err;
  long skipped = -1;
  ASSERT_TRUE(hist::load_file(path_, recs, &err, &skipped)) << err;
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].driver, "taskflow");
  EXPECT_EQ(recs[0].family, "deflate20");
  EXPECT_EQ(recs[0].git_commit, "abc123");
  EXPECT_NEAR(recs[0].gemm_gflops, 4.0, 1e-3);
  EXPECT_EQ(recs[1].driver, "sequential");
  EXPECT_EQ(recs[1].n, 500);
  const hist::Record& old = recs[2];
  EXPECT_EQ(old.git_commit, "def456");
  EXPECT_EQ(old.timestamp, "2026-08-01T08:00:00Z");
  EXPECT_EQ(old.hostname, "oldhost");
  EXPECT_EQ(old.driver, "taskflow");
  EXPECT_EQ(old.family, "type4");
  EXPECT_EQ(old.precision, "f32");
  EXPECT_EQ(old.n, 600);
  EXPECT_EQ(old.workers, 4);
  EXPECT_NEAR(old.seconds, 0.125, 1e-12);
  EXPECT_NEAR(old.makespan, 0.12, 1e-12);
  EXPECT_NEAR(old.total_idle, 0.05, 1e-12);
  EXPECT_NEAR(old.deflated_fraction, 0.25, 1e-12);
  EXPECT_NEAR(old.gemm_gflops, 3.5, 1e-12);
  EXPECT_NEAR(old.max_rel_residual, 1.5e-15, 1e-27);
}

TEST_F(HistoryTest, UnparseableLinesAreSkippedAndCounted) {
  enable();
  ASSERT_TRUE(hist::append(hist::record_from_report(sample_report())));
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not json\n{\"x\": 1}\n", f);
    std::fclose(f);
  }
  ASSERT_TRUE(hist::append(hist::record_from_report(sample_report())));
  std::vector<hist::Record> recs;
  long skipped = 0;
  ASSERT_TRUE(hist::load_file(path_, recs, nullptr, &skipped));
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_EQ(skipped, 2);
}

TEST_F(HistoryTest, RotationAtSizeCap) {
  enable(4096);  // the floor the module clamps to
  EXPECT_EQ(hist::max_bytes(), 4096);
  const hist::Record rec = hist::record_from_report(sample_report());
  // Each line is ~350 bytes; 20 appends cross the 4 KiB cap at least once.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(hist::append(rec));
  std::vector<hist::Record> gen1;
  ASSERT_TRUE(hist::load_file(path_ + ".1", gen1));
  EXPECT_FALSE(gen1.empty());
  std::vector<hist::Record> cur;
  ASSERT_TRUE(hist::load_file(path_, cur));
  EXPECT_FALSE(cur.empty());
  // Nothing lost: the two generations hold all 20 lines.
  EXPECT_EQ(gen1.size() + cur.size(), 20u);
}

TEST_F(HistoryTest, NoteFeedsRingAlwaysAndFileWhenEnabled) {
  hist::note(sample_report());  // disabled: ring only
  EXPECT_EQ(hist::ring_size(), 1u);
  EXPECT_NE(hist::ring_jsonl().find("\"driver\": \"taskflow\""), std::string::npos);
  enable();
  hist::note(sample_report());
  EXPECT_EQ(hist::ring_size(), 2u);
  std::vector<hist::Record> recs;
  ASSERT_TRUE(hist::load_file(path_, recs));
  EXPECT_EQ(recs.size(), 1u);  // only the post-enable note hit the file
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

  hist::Record r;
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
  std::vector<hist::Record> recs;
  const auto rec = [](const char* commit, const char* driver, long n, double secs) {
    hist::Record r;
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
  const std::vector<hist::Record> ser = hist::series(recs, key);
  ASSERT_EQ(ser.size(), 3u);
  EXPECT_NEAR(ser[0].seconds, 0.5, 1e-12);
  EXPECT_NEAR(ser[2].seconds, 0.6, 1e-12);

  const std::vector<hist::Record> per_commit = hist::latest_per_commit(recs, key);
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
