// Flight-recorder tests: ring retention, anomaly triggers, the dump cap,
// and the end-to-end path where an injected bad solve produces exactly one
// JSONL dump whose report and trace round-trip through the loaders.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "mrrr/mrrr.hpp"
#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "obs/trace_io.hpp"

namespace dnc {
namespace {

namespace fl = obs::flight;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  for (std::string line; std::getline(ss, line);)
    if (!line.empty()) out.push_back(line);
  return out;
}

/// Solves in the ring: one ring_jsonl() line each.
std::size_t ring_lines() { return lines_of(fl::ring_jsonl()).size(); }

obs::SolveReport healthy_report(long n = 500) {
  obs::SolveReport rep;
  rep.driver = "test";
  rep.n = n;
  rep.seconds = 0.01;
  rep.has_health = true;
  rep.health.sampled_columns = 8;
  rep.health.max_rel_residual = 1e-15;
  rep.health.max_ortho_error = 1e-15;
  return rep;
}

/// Points the recorder at per-test files and restores the environment (and
/// the recorder's process-wide state) afterwards.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* var : kVars) {
      const char* v = std::getenv(var);
      saved_.emplace_back(var, v ? std::string(v) : std::string());
      saved_set_.push_back(v != nullptr);
      ::unsetenv(var);
    }
    // pid-suffixed: the whole-binary rerun ctest entries run this test
    // concurrently with the discovered per-test process.
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ("_" + std::to_string(::getpid()));
    prefix_ = ::testing::TempDir() + "dnc_flight_" + tag;
    ::setenv("DNC_FLIGHT", prefix_.c_str(), 1);
    fl::reset_for_tests();
  }
  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_set_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
    fl::reset_for_tests();
  }

  std::string dump_path(unsigned long dump) const {
    return prefix_ + "." + std::to_string(dump) + ".jsonl";
  }
  /// Dump files written so far (they are numbered from 1).
  unsigned long dumps_on_disk() const {
    unsigned long k = 0;
    while (std::ifstream(dump_path(k + 1)).good()) ++k;
    return k;
  }

  static constexpr const char* kVars[] = {"DNC_FLIGHT", "DNC_FLIGHT_LATENCY", "DNC_FLIGHT_DEFL",
                                          "DNC_FLIGHT_MAX_DUMPS"};
  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> saved_set_;
  std::string prefix_;
};

TEST(FlightCompactJson, StripsWhitespaceOutsideStrings) {
  EXPECT_EQ(fl::compact_json("{\n  \"a\": 1,\n  \"b\": [1, 2]\n}"),
            "{\"a\":1,\"b\":[1,2]}");
  // String contents -- spaces and escaped quotes -- survive untouched.
  EXPECT_EQ(fl::compact_json("{\"k\": \"a b\\\"c \\\\ d\"}"),
            "{\"k\":\"a b\\\"c \\\\ d\"}");
}

TEST_F(FlightTest, RingRetainsLastK) {
  ASSERT_TRUE(fl::enabled());
  const std::size_t k = fl::kRingReports;
  for (std::size_t i = 0; i < k + 3; ++i) EXPECT_EQ(fl::observe(healthy_report(), nullptr), "");
  EXPECT_EQ(ring_lines(), k);
  EXPECT_EQ(lines_of(fl::ring_jsonl()).front().rfind("{\"seq\": 4,", 0), 0u)
      << "older solves leave the ring";
  EXPECT_EQ(dumps_on_disk(), 0u);
}

TEST_F(FlightTest, ResidualBreachDumpsRing) {
  for (int i = 0; i < 3; ++i) fl::observe(healthy_report(), nullptr);
  obs::SolveReport bad = healthy_report();
  bad.health.max_rel_residual = 1e-3;  // the fp64 trigger is sqrt(eps64) = 1.5e-8
  const std::string path = fl::observe(bad, nullptr);
  ASSERT_EQ(path, dump_path(1));
  EXPECT_EQ(dumps_on_disk(), 1u);

  // Ring dump: the healthy solves lead up to the anomalous one, newest last,
  // every line valid JSON with the full report attached.
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(line, v, &err)) << err << ": " << line;
    const json::Value* rep = v.find("report");
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(rep->member_string("driver", ""), "test");
  }
  json::Value last;
  ASSERT_TRUE(json::parse(lines.back(), last, nullptr));
  EXPECT_EQ(last.member_string("reason", ""), "residual");
  json::Value first;
  ASSERT_TRUE(json::parse(lines.front(), first, nullptr));
  EXPECT_EQ(first.member_string("reason", "x"), "");
  std::remove(path.c_str());
}

TEST_F(FlightTest, LatencyAndDeflationTriggers) {
  ::setenv("DNC_FLIGHT_LATENCY", "1.5", 1);
  ::setenv("DNC_FLIGHT_DEFL", "0.25", 1);
  fl::reset_for_tests();

  obs::SolveReport slow = healthy_report();
  slow.seconds = 2.0;
  std::string p1 = fl::observe(slow, nullptr);
  ASSERT_FALSE(p1.empty());
  json::Value v;
  ASSERT_TRUE(json::parse(lines_of(slurp(p1)).back(), v, nullptr));
  EXPECT_EQ(v.member_string("reason", ""), "latency");

  obs::SolveReport undeflated = healthy_report();
  obs::MergeRecord mr;
  mr.m = 100;
  mr.k = 95;  // 5% deflated < 25% floor
  undeflated.merges.push_back(mr);
  std::string p2 = fl::observe(undeflated, nullptr);
  ASSERT_FALSE(p2.empty());
  ASSERT_TRUE(json::parse(lines_of(slurp(p2)).back(), v, nullptr));
  EXPECT_EQ(v.member_string("reason", ""), "deflation");
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(FlightTest, DumpCapStopsDiskFill) {
  ::setenv("DNC_FLIGHT_MAX_DUMPS", "1", 1);
  fl::reset_for_tests();
  obs::SolveReport bad = healthy_report();
  bad.health.max_rel_residual = 1.0;
  const std::string p1 = fl::observe(bad, nullptr);
  ASSERT_FALSE(p1.empty());
  EXPECT_EQ(fl::observe(bad, nullptr), "");  // cap reached, ring still fed
  EXPECT_EQ(dumps_on_disk(), 1u);
  EXPECT_EQ(ring_lines(), 2u);
  std::remove(p1.c_str());
}

TEST_F(FlightTest, InjectedBadSolveDumpsOnceWithLoadableTrace) {
  // Any solve breaches a 1us latency budget, so the first (and only) solve
  // of the test is the injected anomaly. No stats are passed: the telemetry
  // substitute must assemble the report and trace on its own.
  ::setenv("DNC_FLIGHT_LATENCY", "0.000001", 1);
  fl::reset_for_tests();

  matgen::Tridiag t = matgen::table3_matrix(10, 220);
  Matrix v;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, nullptr);

  EXPECT_EQ(dumps_on_disk(), 1u) << "exactly one dump per anomalous solve";
  const std::string jsonl = slurp(dump_path(1));
  ASSERT_FALSE(jsonl.empty());
  const auto lines = lines_of(jsonl);
  ASSERT_EQ(lines.size(), 1u);
  json::Value entry;
  std::string err;
  ASSERT_TRUE(json::parse(lines[0], entry, &err)) << err;
  EXPECT_EQ(entry.member_string("reason", ""), "latency");
  const json::Value* rep = entry.find("report");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->member_string("driver", ""), "taskflow");
  EXPECT_EQ(static_cast<long>(rep->member_number("n", 0)), 220);
  const json::Value* health = rep->find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_GT(health->member_number("sampled_columns", 0), 0);

  // The triggering solve's Perfetto trace sits next to the JSONL and must
  // round-trip through the trace_io loader, its report included.
  const std::string trace_path = prefix_ + ".1.trace.json";
  rt::Trace loaded;
  obs::SolveReport loaded_report;
  ASSERT_TRUE(obs::load_perfetto_trace_file(trace_path, loaded, &err, &loaded_report)) << err;
  EXPECT_FALSE(loaded.events.empty());
  EXPECT_EQ(loaded_report.hostname, obs::current_hostname());
  EXPECT_EQ(loaded_report.timestamp.size(), 20u);
  std::remove(dump_path(1).c_str());
  std::remove(trace_path.c_str());
}

// A dump's trace carries the triggering solve's report byte-for-byte, for
// the D&C and the MRRR driver alike.
TEST_F(FlightTest, DumpedTraceCarriesTheSolveReport) {
  ::setenv("DNC_FLIGHT_LATENCY", "0.000001", 1);
  fl::reset_for_tests();
  const index_t n = 200;
  matgen::Tridiag t = matgen::table3_matrix(3, n);
  Matrix v;
  dc::Options opt;
  opt.threads = 2;
  dc::SolveStats st;
  dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, opt, &st);
  mrrr::Options mopt;
  mopt.threads = 2;
  mrrr::Stats mst;
  std::vector<double> lam;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt, &mst);

  ASSERT_EQ(dumps_on_disk(), 2u);
  const std::string expected[] = {st.report.to_json(), mst.report.to_json()};
  for (unsigned long dump : {1ul, 2ul}) {
    const std::string trace_path = prefix_ + "." + std::to_string(dump) + ".trace.json";
    rt::Trace loaded;
    obs::SolveReport report;
    std::string err;
    ASSERT_TRUE(obs::load_perfetto_trace_file(trace_path, loaded, &err, &report)) << err;
    EXPECT_EQ(report.to_json(), expected[dump - 1]) << trace_path;
    std::remove(dump_path(dump).c_str());
    std::remove(trace_path.c_str());
  }
}

// The residual trigger sits at sqrt(eps) of the solve's working precision:
// a healthy fp32 solve's sampled residual (~1e-7) is far above fp64's
// trigger but far below fp32's.
TEST_F(FlightTest, HealthySolvesNeverDump) {
  std::size_t solves = 0;
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    for (int type : {3, 10, 15}) {
      matgen::Tridiag t = matgen::table3_matrix(type, 160);
      Matrix v;
      dc::Options opt;
      opt.precision = precision;
      dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, opt, nullptr);
      ++solves;
      EXPECT_EQ(dumps_on_disk(), 0u) << precision_name(precision) << " type " << type;
    }
  }
  EXPECT_EQ(ring_lines(), solves);  // every solve is recorded in the ring
}

}  // namespace
}  // namespace dnc
