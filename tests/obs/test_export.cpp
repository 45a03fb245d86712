// End-to-end export test (the CI gate of the observability layer): a small
// taskflow solve with DNC_TRACE set must produce a syntactically valid
// Perfetto trace containing flow events, both counter tracks and the
// solve's SolveReport, which loads back byte-equal.
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
#include "mrrr/mrrr.hpp"
#include "obs/report.hpp"
#include "obs/trace_io.hpp"

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
    remove_artifacts();
    // The export path gets a sequence suffix after the first export of the
    // process; when several cases share one process (the *_scalar_dispatch
    // ctest entries run the whole binary) each case must start at seq 0 to
    // find its file at the configured path.
    obs::reset_export_sequence();
  }
  void TearDown() override {
    ::unsetenv("DNC_TRACE");
    remove_artifacts();
  }

  /// Removes every file a case can export: the plain path and the
  /// sequenced ".2.json", ".3.json", ... of later solves in the process.
  void remove_artifacts() const {
    for (unsigned seq = 0; seq < kMaxExports; ++seq)
      std::remove(obs::sequenced_export_path(trace_path_, seq).c_str());
  }

  /// The report the trace file at `path` carries (driver "" when none).
  static obs::SolveReport report_of(const std::string& path) {
    rt::Trace trace;
    obs::SolveReport report;
    std::string err;
    EXPECT_TRUE(obs::load_perfetto_trace_file(path, trace, &err, &report)) << err;
    return report;
  }

  static constexpr unsigned kMaxExports = 8;  ///< more than any case exports

  void run_solve(index_t n = 250) {
    matgen::Tridiag t = matgen::table3_matrix(10, n);
    Matrix v;
    dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, {}, nullptr, {});
  }

  std::string trace_path_;
};

TEST_F(ExportTest, EnvUnsetWritesNothing) {
  run_solve(100);
  EXPECT_FALSE(std::ifstream(trace_path_).good());
}

TEST_F(ExportTest, TraceAndReportExportEvenWithoutStats) {
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  run_solve();

  const std::string trace = slurp(trace_path_);
  ASSERT_FALSE(trace.empty()) << "DNC_TRACE file not written";
  EXPECT_TRUE(JsonChecker(trace).valid()) << "trace is not valid JSON";
  // Perfetto essentials: labelled rows, slices, flow arrows, and the two
  // counter tracks.
  for (const char* needle :
       {"\"process_name\"", "\"thread_name\"", "\"ph\":\"X\"", "\"ph\":\"s\"", "\"ph\":\"f\"",
        "\"ph\":\"C\"", "\"ready_queue_depth\"", "\"deflated_cumulative\"", "\"args\"",
        "\"level\"", "\"ready_wait_us\"", "\"queue_depth_peak\"", "\"sched_counters\"",
        "\"dnc_report\""})
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;

  // The embedded report is the whole SolveReport of the solve.
  const obs::SolveReport report = report_of(trace_path_);
  EXPECT_EQ(report.driver, "taskflow");
  EXPECT_EQ(report.n, 250);
  EXPECT_GT(report.counter(obs::kLaed4Calls), 0u);
  EXPECT_FALSE(report.merges.empty());
  EXPECT_TRUE(report.has_scheduler);
  EXPECT_GT(report.scheduler.max_queue_depth, 0);
  EXPECT_NE(report.summary_text().find("deflation"), std::string::npos);
}

// The report the trace file carries is byte-for-byte the solve's own, for
// the D&C and the MRRR driver alike.
TEST_F(ExportTest, TraceReportRoundTripsByteEqual) {
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  const index_t n = 200;
  matgen::Tridiag t = matgen::table3_matrix(3, n);
  Matrix v;
  dc::Options opt;
  opt.threads = 2;
  dc::SolveStats st;
  dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, opt, &st);
  EXPECT_EQ(report_of(trace_path_).to_json(), st.report.to_json());

  mrrr::Options mopt;
  mopt.threads = 2;
  mrrr::Stats mst;
  std::vector<double> lam;
  mrrr_solve(n, t.d.data(), t.e.data(), lam, v, mopt, &mst);
  EXPECT_EQ(report_of(obs::sequenced_export_path(trace_path_, 1)).to_json(),
            mst.report.to_json());
}

TEST_F(ExportTest, Fp32SolveExportsItsWholeTime) {
  // The front door stamps the report's seconds after it has widened the
  // fp32 eigenpairs, so they cover the whole call...
  const index_t n = 400;
  matgen::Tridiag t = matgen::table3_matrix(15, n);
  Matrix v;
  dc::Options opt;
  opt.precision = Precision::F32;
  dc::SolveStats st;
  Stopwatch wall;
  dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, opt, &st);
  EXPECT_GE(st.seconds, 0.9 * wall.elapsed());

  // ...and the exported trace carries that stamp (writing the file comes
  // after it).
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  dc::stedc_taskflow(n, t.d.data(), t.e.data(), v, opt, &st);
  EXPECT_NEAR(report_of(trace_path_).seconds, st.seconds, 1e-6);
}

TEST(SequencedExportPath, SuffixScheme) {
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 0), "trace.json");
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 1), "trace.2.json");
  EXPECT_EQ(obs::sequenced_export_path("trace.json", 9), "trace.10.json");
  EXPECT_EQ(obs::sequenced_export_path("/tmp/out/trace.json", 2), "/tmp/out/trace.3.json");
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
  run_solve(120);
  run_solve(140);
  run_solve(160);

  // First export at the configured path, later ones suffixed -- no solve
  // clobbers an earlier artifact.
  EXPECT_TRUE(std::ifstream(trace_path_).good()) << trace_path_;
  for (unsigned seq : {1u, 2u}) {
    const std::string p = obs::sequenced_export_path(trace_path_, seq);
    EXPECT_TRUE(std::ifstream(p).good()) << p;
    EXPECT_TRUE(JsonChecker(slurp(p)).valid()) << p;
    EXPECT_EQ(report_of(p).n, seq == 1u ? 140 : 160) << p;
  }

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

// stedc_sequential runs no runtime, so it has no trace to write; it must
// not take a sequence number either, or the next solve's trace would be
// named as the process's second file.
TEST_F(ExportTest, SequentialSolveTakesNoSequenceNumber) {
  ::setenv("DNC_TRACE", trace_path_.c_str(), 1);
  matgen::Tridiag t = matgen::table3_matrix(10, 200);
  Matrix v;
  dc::stedc_sequential(200, t.d.data(), t.e.data(), v, {}, nullptr);
  EXPECT_FALSE(std::ifstream(trace_path_).good());
  run_solve(140);
  EXPECT_EQ(report_of(trace_path_).driver, "taskflow");
  EXPECT_FALSE(std::ifstream(obs::sequenced_export_path(trace_path_, 1)).good());
}

}  // namespace
}  // namespace dnc
