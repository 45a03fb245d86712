// Concurrency stress for the metrics registry, run under ThreadSanitizer by
// the `runtime`-labeled CI job: many writer threads hammer counters,
// histograms and a gauge while scraper threads copy the registry and a
// registrar adds new series, all through the one registry mutex. The
// assertions check that nothing is lost; under TSan the test also checks
// that no recording, scrape or registration touches a value outside that
// mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace dnc {
namespace {

namespace m = obs::metrics;

class MetricsStressTest : public ::testing::Test {
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

TEST_F(MetricsStressTest, ConcurrentWritersScrapersAndRegistrars) {
  constexpr int kWriters = 8, kIters = 4000;
  m::Id c = m::register_metric(m::Kind::Counter, "stress_total", "", "t");
  m::Id h = m::register_metric(m::Kind::Histogram, "stress_hist", "", "t");
  m::Id g = m::register_metric(m::Kind::Gauge, "stress_gauge", "", "t");
  ASSERT_TRUE(c.valid());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        m::add(c);
        m::observe(h, 1e-4 * (1 + ((w * kIters + i) % 1000)));
        if (i % 64 == 0) m::set_gauge(g, static_cast<double>(i));
      }
    });
  // Two scrapers merge continuously while the writers write.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s)
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        m::Snapshot snap = m::scrape();
        EXPECT_GE(snap.metrics.size(), 3u);
        (void)m::prometheus_text(snap);
      }
    });
  // A registrar keeps adding fresh series, racing the index map's lock.
  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) {
      std::string labels = "series=\"" + std::to_string(i % 16) + "\"";
      m::add(m::register_metric(m::Kind::Counter, "stress_dyn_total", labels, "t"));
    }
  });

  for (auto& t : threads) t.join();
  registrar.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();

  // Writers are done: the final scrape must account for every recording.
  m::Snapshot snap = m::scrape();
  ASSERT_GE(snap.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, kWriters * kIters);
  EXPECT_EQ(snap.metrics[1].count, static_cast<std::uint64_t>(kWriters * kIters));
  std::uint64_t in_buckets = 0;
  for (const auto& [idx, cnt] : snap.metrics[1].buckets) in_buckets += cnt;
  EXPECT_EQ(in_buckets, snap.metrics[1].count);
  double dyn_total = 0;
  for (const auto& ms : snap.metrics)
    if (ms.name == "stress_dyn_total") dyn_total += ms.value;
  EXPECT_DOUBLE_EQ(dyn_total, 200.0);
}

TEST_F(MetricsStressTest, RecordsFromExitedThreadsReachScrape) {
  m::Id c = m::register_metric(m::Kind::Counter, "exit_total", "", "t");
  for (int round = 0; round < 16; ++round) {
    std::thread t([&] { m::add(c, 1.0); });
    t.join();
    // Scrape between thread lifetimes: what an exited thread recorded
    // must still count.
    EXPECT_DOUBLE_EQ(m::scrape().metrics[0].value, round + 1.0);
  }
}

}  // namespace
}  // namespace dnc
