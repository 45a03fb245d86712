// End-to-end export test (the CI gate of the observability layer): a small
// taskflow solve with DNC_TRACE / DNC_REPORT set must produce a
// syntactically valid Perfetto trace containing flow events and both
// counter tracks, plus a JSON report and text summary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/timer.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/report.hpp"

namespace dnc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Minimal JSON syntax checker: enough to catch unbalanced structure,
// unescaped quotes, and trailing garbage without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-name + per-pid paths: ctest runs each case as its own
    // process, in parallel with its siblings AND with the whole-binary
    // rerun entries (*_scalar_dispatch, *_telemetry_on), so names shared
    // across processes would race.
    const std::string tag =
        std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
        std::to_string(::getpid());
    trace_path_ = ::testing::TempDir() + "dnc_" + tag + "_trace.json";
    report_path_ = ::testing::TempDir() + "dnc_" + tag + "_report.json";
    remove_artifacts();
    // The export path gets a sequence suffix after the first export of the
    // process; when several cases share one process (the *_scalar_dispatch
    // ctest entries run the whole binary) each case must start at seq 0 to
    // find its file at the configured path.
    obs::reset_export_sequence();
  }
  void TearDown() override {
    ::unsetenv("DNC_TRACE");
    ::unsetenv("DNC_REPORT");
    remove_artifacts();
  }

  /// Removes every file a case can export: the plain paths, the sequenced
  /// ".2.json", ".3.json", ... of later solves in the process, and the
  /// report's ".txt" summaries.
  void remove_artifacts() const {
    for (unsigned seq = 0; seq < kMaxExports; ++seq) {
      std::remove(obs::sequenced_export_path(trace_path_, seq).c_str());
      const std::string report = obs::sequenced_export_path(report_path_, seq);
      std::remove(report.c_str());
      std::remove((report + ".txt").c_str());
    }
  }

  static constexpr unsigned kMaxExports = 8;  ///< more than any case exports

  void run_solve(index_t n = 250) {
    matgen::Tridiag t = matgen::table3_matrix(10, n);
    Matrix v;
    dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, {}, nullptr, {});
  }

  std::string trace_path_, report_path_;
};

TEST_F(ExportTest, EnvUnsetWritesNothing) {
  run_solve(100);
  EXPECT_FALSE(std::ifstream(trace_path_).good());
  EXPECT_FALSE(std::ifstream(report_path_).good());
}

TEST_F(ExportTest, TraceAndReportExportEvenWithoutStats) {
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  ::setenv("DNC_REPORT", report_path_.c_str(), 1);
  run_solve();

  const std::string trace = slurp(trace_path_);
  ASSERT_FALSE(trace.empty()) << "DNC_TRACE file not written";
  EXPECT_TRUE(JsonChecker(trace).valid()) << "trace is not valid JSON";
  // Perfetto essentials: labelled rows, slices, flow arrows, and the two
  // counter tracks.
  for (const char* needle :
       {"\"process_name\"", "\"thread_name\"", "\"ph\":\"X\"", "\"ph\":\"s\"", "\"ph\":\"f\"",
        "\"ph\":\"C\"", "\"ready_queue_depth\"", "\"deflated_cumulative\"", "\"args\"",
        "\"level\"", "\"ready_wait_us\"", "\"queue_depth_peak\"", "\"sched_counters\""})
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;

  const std::string report = slurp(report_path_);
  ASSERT_FALSE(report.empty()) << "DNC_REPORT file not written";
  EXPECT_TRUE(JsonChecker(report).valid()) << "report is not valid JSON";
  for (const char* needle : {"\"driver\": \"taskflow\"", "\"laed4_calls\"", "\"merges\"",
                             "\"ctot\"", "\"scheduler\"", "\"max_queue_depth\"", "\"steals\"",
                             "\"local_pops\""})
    EXPECT_NE(report.find(needle), std::string::npos) << needle;

  const std::string summary = slurp(report_path_ + ".txt");
  ASSERT_FALSE(summary.empty()) << "text summary not written";
  EXPECT_NE(summary.find("dnc solve report"), std::string::npos);
  EXPECT_NE(summary.find("deflation"), std::string::npos);
}

TEST_F(ExportTest, RefinedSolveExportsItsWholeTime) {
  // The report is written after the F32RefineF64 refinement, so its
  // seconds cover it: the refinement is most of such a solve.
  ::setenv("DNC_REPORT", report_path_.c_str(), 1);
  const index_t n = 400;
  matgen::Tridiag t = matgen::table3_matrix(15, n);
  Matrix v;
  dc::Options opt;
  opt.precision = Precision::F32RefineF64;
  dc::SolveStats st;
  Stopwatch wall;
  dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, opt, &st);
  const double elapsed = wall.elapsed();

  const std::string report = slurp(report_path_);
  const std::string key = "\"seconds\": ";
  const std::size_t at = report.find(key);
  ASSERT_NE(at, std::string::npos) << "no seconds in the exported report";
  const double exported = std::strtod(report.c_str() + at + key.size(), nullptr);
  EXPECT_NEAR(exported, st.seconds, 1e-6);
  EXPECT_GE(exported, 0.9 * elapsed);
}

TEST(SequencedExportPath, SuffixScheme) {
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 0), "trace.json");
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 1), "trace.2.json");
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 9), "trace.10.json");
  EXPECT_EQ(obs::sequenced_export_path("/tmp/out/report.json", 2), "/tmp/out/report.3.json");
  // A dot in a directory name must not be mistaken for an extension.
  EXPECT_EQ(obs::sequenced_export_path("/tmp/v1.2/trace", 1), "/tmp/v1.2/trace.2");
  EXPECT_EQ(obs::sequenced_export_path("trace", 1), "trace.2");
}

TEST(SequencedExportPath, PlaceholderExpansion) {
  const std::string pid = std::to_string(::getpid());
  EXPECT_EQ(obs::expand_path_placeholders("m_%p_%s.json", 7), "m_" + pid + "_7.json");
  EXPECT_EQ(obs::expand_path_placeholders("plain.json", 3), "plain.json");
  EXPECT_EQ(obs::expand_path_placeholders("%p/%p", 1), pid + "/" + pid);
}

TEST_F(ExportTest, SecondSolveOfProcessGetsSequenceSuffix) {
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  ::setenv("DNC_REPORT", report_path_.c_str(), 1);
  run_solve(120);
  run_solve(140);
  run_solve(160);

  // First export at the configured paths, later ones suffixed -- no solve
  // clobbers an earlier artifact.
  for (const std::string& base : {trace_path_, report_path_}) {
    EXPECT_TRUE(std::ifstream(base).good()) << base;
    for (unsigned seq : {1u, 2u}) {
      const std::string p = obs::sequenced_export_path(base, seq);
      EXPECT_TRUE(std::ifstream(p).good()) << p;
      EXPECT_TRUE(JsonChecker(slurp(p)).valid()) << p;
    }
  }
  // Trace and report of one solve share the counter, so .2/.3 pair up.
  EXPECT_TRUE(
      std::ifstream(obs::sequenced_export_path(report_path_, 2) + ".txt").good());

  // reset_export_sequence starts over: the next export reuses (and may
  // overwrite) the plain path.
  obs::reset_export_sequence();
  std::remove(trace_path_.c_str());
  run_solve(120);
  EXPECT_TRUE(std::ifstream(trace_path_).good());
  EXPECT_FALSE(std::ifstream(obs::sequenced_export_path(trace_path_, 3)).good());
}

TEST_F(ExportTest, SequenceExportsCarryExactlyOneMetadataPrologue) {
  // Regression: the exporter used to emit the process_name/thread_name
  // metadata from two code paths, so a sequence file (trace.2.json) could
  // end up with duplicate metadata blocks and confuse standalone loading
  // in Perfetto. Every export -- first or suffixed -- must contain exactly
  // one process_name record and one thread_name per worker.
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  run_solve(140);
  run_solve(140);
  for (unsigned seq : {0u, 1u}) {
    const std::string p = obs::sequenced_export_path(trace_path_, seq);
    const std::string trace = slurp(p);
    ASSERT_FALSE(trace.empty()) << p;
    EXPECT_TRUE(JsonChecker(trace).valid()) << p;
    std::size_t count = 0, at = 0;
    while ((at = trace.find("\"process_name\"", at)) != std::string::npos) {
      ++count;
      at += 1;
    }
    EXPECT_EQ(count, 1u) << p;
  }
}

TEST_F(ExportTest, SequentialDriverExportsReportWithoutTrace) {
  ::setenv("DNC_REPORT", report_path_.c_str(), 1);
  matgen::Tridiag t = matgen::table3_matrix(10, 200);
  Matrix v;
  dc::stedc_sequential(200, t.d.data(), t.e.data(), v, {}, nullptr);
  const std::string report = slurp(report_path_);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(JsonChecker(report).valid());
  EXPECT_NE(report.find("\"driver\": \"sequential\""), std::string::npos);
  EXPECT_NE(report.find("\"has_scheduler\": false"), std::string::npos);
}

}  // namespace
}  // namespace dnc
