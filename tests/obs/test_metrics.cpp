// Metrics registry tests: bucketing/quantile accuracy, scrape round trips
// through both exposition formats, placeholder export paths, and the
// zero-overhead guarantee with DNC_METRICS unset.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "dc/api.hpp"
#include "matgen/tridiag.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace dnc {
namespace {

namespace m = obs::metrics;

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Enables collection for the test body and restores the process state
/// afterwards, so sibling tests (and the DNC_METRICS=1 whole-suite ctest
/// configuration) see a registry consistent with their environment.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("DNC_METRICS");
    had_env_ = old != nullptr;
    old_env_ = old ? old : "";
    ::setenv("DNC_METRICS", "1", 1);
    m::reset_for_tests();
  }
  void TearDown() override {
    if (had_env_)
      ::setenv("DNC_METRICS", old_env_.c_str(), 1);
    else
      ::unsetenv("DNC_METRICS");
    m::reset_for_tests();
  }

  bool had_env_ = false;
  std::string old_env_;
};

// --- bucketing -------------------------------------------------------------

TEST(MetricsBuckets, EveryValueLandsInItsBucket) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> mant(0.5, 1.0);
  std::uniform_int_distribution<int> expo(m::kHistMinExp - 3, m::kHistMaxExp + 3);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::ldexp(mant(rng), expo(rng));
    const int b = m::bucket_index(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, m::kHistBuckets);
    if (b == 0) {
      EXPECT_LT(v, std::ldexp(1.0, m::kHistMinExp));
    } else if (b == m::kHistBuckets - 1) {
      EXPECT_GE(v, std::ldexp(1.0, m::kHistMaxExp));
    } else {
      // 1-ulp slack: the index and the bound are computed through different
      // transcendental paths.
      EXPECT_GE(v, m::bucket_lower(b) * (1.0 - 1e-12)) << "bucket " << b;
      EXPECT_LT(v, m::bucket_upper(b) * (1.0 + 1e-12)) << "bucket " << b;
    }
  }
  // Degenerate inputs all land in the underflow bucket instead of UB.
  EXPECT_EQ(m::bucket_index(0.0), 0);
  EXPECT_EQ(m::bucket_index(-3.5), 0);
  EXPECT_EQ(m::bucket_index(std::nan("")), 0);
  EXPECT_EQ(m::bucket_index(1e300), m::kHistBuckets - 1);
}

TEST(MetricsBuckets, BoundsAreMonotone) {
  for (int i = 1; i < m::kHistBuckets - 1; ++i) {
    EXPECT_LT(m::bucket_lower(i), m::bucket_upper(i)) << i;
    EXPECT_DOUBLE_EQ(m::bucket_upper(i), m::bucket_lower(i + 1)) << i;
  }
  EXPECT_EQ(m::bucket_lower(0), 0.0);
  EXPECT_TRUE(std::isinf(m::bucket_upper(m::kHistBuckets - 1)));
}

TEST_F(MetricsTest, QuantileRelativeErrorIsBounded) {
  // The documented guarantee: for in-range values the bucketed quantile is
  // within a factor 2^(1/kHistSub) of the exact empirical quantile.
  m::Id h = m::register_metric(m::Kind::Histogram, "test_quantiles", "", "t");
  ASSERT_TRUE(h.valid());
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> logv(std::log(1e-6), std::log(1e4));
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(std::exp(logv(rng)));
    m::observe(h, values.back());
  }
  std::sort(values.begin(), values.end());

  m::Snapshot snap = m::scrape();
  ASSERT_EQ(snap.metrics.size(), 1u);
  const m::MetricSnapshot& hist = snap.metrics[0];
  ASSERT_EQ(hist.count, values.size());
  const double bound = std::exp2(1.0 / m::kHistSub) - 1.0;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * values.size()));
    const double exact = values[rank == 0 ? 0 : rank - 1];
    const double est = hist.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, bound) << "q=" << q;
  }
}

// --- registry + scrape -----------------------------------------------------

TEST_F(MetricsTest, CountersGaugesAndDedup) {
  m::Id c = m::register_metric(m::Kind::Counter, "test_total", "kind=\"a\"", "help a");
  m::Id c2 = m::register_metric(m::Kind::Counter, "test_total", "kind=\"a\"", "ignored");
  m::Id cb = m::register_metric(m::Kind::Counter, "test_total", "kind=\"b\"", "help b");
  m::Id g = m::register_metric(m::Kind::Gauge, "test_gauge", "", "g");
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.v, c2.v);  // (name, labels) dedupes
  EXPECT_NE(c.v, cb.v);
  m::add(c);
  m::add(c, 2.5);
  m::add(cb, 10);
  m::set_gauge(g, 1.0);
  m::set_gauge(g, 42.0);

  m::Snapshot snap = m::scrape();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.pid, static_cast<long>(::getpid()));
  EXPECT_FALSE(snap.hostname.empty());
  EXPECT_NE(snap.timestamp.find('T'), std::string::npos);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 3.5);
  EXPECT_DOUBLE_EQ(snap.metrics[1].value, 10.0);
  EXPECT_DOUBLE_EQ(snap.metrics[2].value, 42.0);  // last write wins
}

TEST_F(MetricsTest, RecordsFromManyThreadsAllReachScrape) {
  m::Id c = m::register_metric(m::Kind::Counter, "test_mt_total", "", "t");
  m::Id h = m::register_metric(m::Kind::Histogram, "test_mt_hist", "", "t");
  constexpr int kThreads = 4, kIters = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        m::add(c);
        m::observe(h, 1.0);
      }
    });
  for (auto& t : ts) t.join();

  m::Snapshot snap = m::scrape();
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, kThreads * kIters);
  EXPECT_EQ(snap.metrics[1].count, static_cast<std::uint64_t>(kThreads * kIters));
}

TEST_F(MetricsTest, RegistryCapsAt256Series) {
  // The cap bounds a runaway label set: the 257th series gets an invalid id
  // and recording on it does nothing.
  for (int i = 0; i < 256; ++i) {
    const std::string labels = "i=\"" + std::to_string(i) + "\"";
    ASSERT_TRUE(m::register_metric(m::Kind::Counter, "cap_total", labels, "t").valid()) << i;
  }
  for (m::Kind kind : {m::Kind::Counter, m::Kind::Gauge, m::Kind::Histogram}) {
    m::Id over = m::register_metric(kind, "cap_over", "", "t");
    EXPECT_FALSE(over.valid());
    m::add(over, 5);
    m::set_gauge(over, 6);
    m::observe(over, 7);
  }

  m::Snapshot snap = m::scrape();
  ASSERT_EQ(snap.metrics.size(), 256u);
  for (const auto& ms : snap.metrics) {
    EXPECT_EQ(ms.name, "cap_total");
    EXPECT_EQ(ms.value, 0.0);
    EXPECT_EQ(ms.count, 0u);
  }
}

TEST_F(MetricsTest, JsonSnapshotRoundTrips) {
  m::Id c = m::register_metric(m::Kind::Counter, "rt_total", "x=\"1\"", "counter help");
  m::Id g = m::register_metric(m::Kind::Gauge, "rt_gauge", "", "gauge help");
  m::Id h = m::register_metric(m::Kind::Histogram, "rt_seconds", "", "hist help");
  m::add(c, 5);
  m::set_gauge(g, -2.25);
  for (double v : {1e-3, 2e-3, 0.5, 8.0}) m::observe(h, v);

  m::Snapshot a = m::scrape();
  m::Snapshot b;
  std::string err;
  ASSERT_TRUE(m::parse_snapshot(m::json_text(a), b, &err)) << err;
  ASSERT_EQ(b.metrics.size(), a.metrics.size());
  EXPECT_EQ(b.pid, a.pid);
  EXPECT_EQ(b.hostname, a.hostname);
  EXPECT_EQ(b.timestamp, a.timestamp);
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    SCOPED_TRACE(a.metrics[i].name);
    EXPECT_EQ(b.metrics[i].kind, a.metrics[i].kind);
    EXPECT_EQ(b.metrics[i].name, a.metrics[i].name);
    EXPECT_EQ(b.metrics[i].labels, a.metrics[i].labels);
    EXPECT_EQ(b.metrics[i].help, a.metrics[i].help);
    EXPECT_DOUBLE_EQ(b.metrics[i].value, a.metrics[i].value);
    EXPECT_EQ(b.metrics[i].count, a.metrics[i].count);
    EXPECT_DOUBLE_EQ(b.metrics[i].sum, a.metrics[i].sum);
    EXPECT_EQ(b.metrics[i].buckets, a.metrics[i].buckets);
  }
  EXPECT_FALSE(m::parse_snapshot("{\"schema\": \"other\"}", b, &err));
  EXPECT_FALSE(m::parse_snapshot("not json", b, &err));
}

TEST_F(MetricsTest, PrometheusExposition) {
  m::Id c = m::register_metric(m::Kind::Counter, "prom_total", "k=\"v\"", "a counter");
  m::Id h = m::register_metric(m::Kind::Histogram, "prom_seconds", "", "a histogram");
  m::add(c, 3);
  m::observe(h, 0.25);
  m::observe(h, 0.25);
  m::observe(h, 4.0);

  const std::string text = m::prometheus_text(m::scrape());
  EXPECT_NE(text.find("# HELP prom_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("prom_total{k=\"v\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_seconds histogram\n"), std::string::npos);
  // Cumulative buckets end at the +Inf bucket == _count.
  EXPECT_NE(text.find("prom_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("prom_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("prom_seconds_sum 4.5\n"), std::string::npos);
}

TEST_F(MetricsTest, RenderAndDiff) {
  m::Id c = m::register_metric(m::Kind::Counter, "d_total", "", "t");
  m::Id g = m::register_metric(m::Kind::Gauge, "d_gauge", "", "t");
  m::Id h = m::register_metric(m::Kind::Histogram, "d_hist", "", "t");
  m::add(c, 2);
  m::set_gauge(g, 1.0);
  m::observe(h, 0.5);
  m::Snapshot a = m::scrape();
  m::add(c, 5);
  m::set_gauge(g, 3.0);
  m::observe(h, 0.5);
  m::observe(h, 0.5);
  m::Snapshot b = m::scrape();

  const std::string render = m::render_snapshot(b);
  EXPECT_NE(render.find("metrics snapshot"), std::string::npos);
  EXPECT_NE(render.find("d_total"), std::string::npos);

  const std::string diff = m::render_diff(a, b);
  EXPECT_NE(diff.find("+5"), std::string::npos);
  EXPECT_NE(diff.find("1 -> 3"), std::string::npos);
  EXPECT_NE(diff.find("count=2"), std::string::npos);  // histogram delta
  // Unchanged series stay out of the diff.
  EXPECT_EQ(m::render_diff(b, b).find("d_total"), std::string::npos);
}

// --- export ---------------------------------------------------------------

TEST(MetricsExportPath, PlaceholderExpansion) {
  const std::string pid = std::to_string(::getpid());
  EXPECT_EQ(obs::expand_path_placeholders("m_%p_%s.prom", 7), "m_" + pid + "_7.prom");
  EXPECT_EQ(obs::expand_path_placeholders("plain.prom", 3), "plain.prom");
  EXPECT_EQ(obs::expand_path_placeholders("%p/%p", 1), pid + "/" + pid);
}

TEST(MetricsExportPath, ExportWritesBothFormats) {
  const char* old = std::getenv("DNC_METRICS");
  const std::string old_env = old ? old : "";
  const bool had_env = old != nullptr;
  const std::string base = ::testing::TempDir() + "dnc_metrics_%p_%s.prom";
  ::setenv("DNC_METRICS", base.c_str(), 1);
  m::reset_for_tests();
  m::add(m::register_metric(m::Kind::Counter, "exp_total", "", "t"), 4);

  const std::string p1 = m::export_now();
  ASSERT_FALSE(p1.empty());
  EXPECT_NE(p1.find(std::to_string(::getpid())), std::string::npos);
  EXPECT_NE(p1.find("_1.prom"), std::string::npos);
  EXPECT_NE(slurp(p1).find("exp_total 4"), std::string::npos);
  m::Snapshot snap;
  std::string err;
  ASSERT_TRUE(m::parse_snapshot(slurp(p1 + ".json"), snap, &err)) << err;
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 4.0);

  // Each export names its own file via %s: no clobbering.
  const std::string p2 = m::export_now();
  EXPECT_NE(p2, p1);
  EXPECT_NE(p2.find("_2.prom"), std::string::npos);

  std::remove(p1.c_str());
  std::remove((p1 + ".json").c_str());
  std::remove(p2.c_str());
  std::remove((p2 + ".json").c_str());
  if (had_env)
    ::setenv("DNC_METRICS", old_env.c_str(), 1);
  else
    ::unsetenv("DNC_METRICS");
  m::reset_for_tests();
}

// --- zero overhead when disabled ------------------------------------------

TEST(MetricsZeroOverhead, DisabledRegistersAndAllocatesNothing) {
  if (std::getenv("DNC_METRICS") != nullptr || std::getenv("DNC_FLIGHT") != nullptr)
    GTEST_SKIP() << "metrics/flight enabled via environment";
  m::reset_for_tests();
  EXPECT_FALSE(m::enabled());

  m::Id id = m::register_metric(m::Kind::Counter, "zo_total", "", "t");
  EXPECT_FALSE(id.valid());
  m::add(id, 1.0);
  m::set_gauge(id, 2.0);
  m::observe(id, 3.0);

  // A full instrumented solve must leave no trace either: every recording
  // site is behind the enabled() gate.
  matgen::Tridiag t = matgen::table3_matrix(10, 200);
  Matrix v;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);

  EXPECT_EQ(m::registry_size(), 0u);
  EXPECT_TRUE(m::scrape().metrics.empty());
  EXPECT_TRUE(m::configured_export_path().empty());
  EXPECT_TRUE(m::export_now().empty());
  EXPECT_FALSE(st.report.has_health);  // health probe never armed
}

// --- solve instrumentation -------------------------------------------------

TEST_F(MetricsTest, SolveRecordsCoreSeries) {
  matgen::Tridiag t = matgen::table3_matrix(10, 260);
  Matrix v;
  dc::SolveStats st;
  dc::stedc_taskflow(t.n(), t.d.data(), t.e.data(), v, {}, &st);

  ASSERT_TRUE(st.report.has_health);
  EXPECT_GT(st.report.health.sampled_columns, 0);
  EXPECT_LT(st.report.health.max_rel_residual, 1e-10);
  EXPECT_LT(st.report.health.max_ortho_error, 1e-10);

  const std::string text = m::prometheus_text(m::scrape());
  for (const char* needle :
       {"dnc_solves_total{driver=\"taskflow\"", "dnc_solve_seconds_bucket",
        "dnc_merge_deflation_ratio", "dnc_health_rel_residual",
        "dnc_health_ortho_error", "dnc_last_solve_n",
        "\ndnc_sched_tasks_total "})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST_F(MetricsTest, SolveWithoutStatsStillRecords) {
  // The telemetry substitute SolveStats kicks in when the caller passes
  // nullptr but collection is on.
  matgen::Tridiag t = matgen::table3_matrix(10, 180);
  Matrix v;
  dc::stedc_sequential(t.n(), t.d.data(), t.e.data(), v, {}, nullptr);
  const std::string text = m::prometheus_text(m::scrape());
  EXPECT_NE(text.find("dnc_solves_total{driver=\"sequential\""), std::string::npos);
}

// --- SolveStats reuse regression -------------------------------------------

TEST(ReportReuse, SecondSolveDoesNotAccumulate) {
  matgen::Tridiag t = matgen::table3_matrix(10, 240);

  dc::SolveStats fresh;
  {
    std::vector<double> d = t.d, e = t.e;
    Matrix v;
    dc::stedc_taskflow(t.n(), d.data(), e.data(), v, {}, &fresh);
  }

  dc::SolveStats reused;
  reused.refine.checked = 99;  // stale refinement aggregate from a past run
  reused.refine.refined = 99;
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
  // records, counters, scheduler metrics, hwc attribution, refinement.
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
  EXPECT_EQ(reused.refine.checked, 0);  // no refinement ran at F64
  EXPECT_EQ(reused.refine.refined, 0);
  EXPECT_EQ(reused.report.has_health, fresh.report.has_health);
  if (reused.report.has_health) {
    EXPECT_LT(reused.report.health.max_rel_residual, 1e-10);
  }
}

// --- report metadata -------------------------------------------------------

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
