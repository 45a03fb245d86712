#include "obs/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/text.hpp"
#include "obs/report.hpp"
#include "obs/thread_blocks.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs::metrics {
namespace {

constexpr int kMaxMetrics = 256;

inline std::uint64_t dbits(double v) noexcept { return std::bit_cast<std::uint64_t>(v); }
inline double bits_d(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }

// One thread's slice of every metric, in the shared per-thread registry
// (obs/thread_blocks.hpp). Histogram bucket arrays are allocated on first
// observation: the owner is the sole writer of the pointer slot, so a
// release store / acquire load pairing is all the synchronisation the array
// contents need.
struct Shard {
  std::atomic<std::uint64_t> count[kMaxMetrics] = {};
  std::atomic<std::uint64_t> sum_bits[kMaxMetrics] = {};  // double payload
  std::atomic<std::atomic<std::uint64_t>*> buckets[kMaxMetrics] = {};

  ~Shard() {
    for (auto& b : buckets) delete[] b.load(std::memory_order_relaxed);
  }
};

using Shards = ThreadBlocks<Shard, /*kResettable=*/true>;

struct MetricInfo {
  Kind kind = Kind::Counter;
  std::string name, labels, help;
  std::atomic<std::uint64_t> gauge_bits{0};  // gauges are process-global
};

// Leaked singleton: the at-exit exporter and a detached interval exporter
// may still be scraping while static destructors run elsewhere.
struct State {
  std::mutex mu;
  std::vector<std::unique_ptr<MetricInfo>> metrics;       // under mu
  std::map<std::string, int> index;                       // name\x01labels -> id
  std::atomic<unsigned long> export_seq{0};
  std::string export_path;  // under mu; "" = in-memory only
  double interval_s = 0;    // under mu
  bool exporter_installed = false;
};

State& state() {
  static State* s = new State;
  return *s;
}

bool configure(const char* value) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.export_path = value ? value : "";
  s.interval_s = value ? env::number("DNC_METRICS_INTERVAL", 0.0) : 0.0;
  return value != nullptr;
}

constinit env::Gate gate{"DNC_METRICS", "", configure};

const char* kind_str(Kind k) {
  switch (k) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "counter";
}

}  // namespace

// --- bucketing ------------------------------------------------------------

int bucket_index(double v) noexcept {
  if (!(v >= std::ldexp(1.0, kHistMinExp))) return 0;  // NaN, <=0, underflow
  if (v >= std::ldexp(1.0, kHistMaxExp)) return kHistBuckets - 1;
  int e;
  double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  double f = std::log2(2.0 * m);  // fractional octave position in [0, 1)
  int sub = static_cast<int>(f * kHistSub);
  if (sub >= kHistSub) sub = kHistSub - 1;
  if (sub < 0) sub = 0;
  int idx = 1 + (e - 1 - kHistMinExp) * kHistSub + sub;
  return std::clamp(idx, 1, kHistBuckets - 2);
}

double bucket_lower(int i) noexcept {
  if (i <= 0) return 0.0;
  if (i >= kHistBuckets - 1) return std::ldexp(1.0, kHistMaxExp);
  int k = i - 1;
  return std::exp2(kHistMinExp + k / kHistSub +
                   static_cast<double>(k % kHistSub) / kHistSub);
}

double bucket_upper(int i) noexcept {
  if (i <= 0) return std::ldexp(1.0, kHistMinExp);
  if (i >= kHistBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(i + 1);
}

// --- gate -----------------------------------------------------------------

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

// --- registration + recording ---------------------------------------------

Id register_metric(Kind kind, const std::string& name, const std::string& labels,
                   const std::string& help) {
  if (!enabled()) return {};
  State& s = state();
  int id;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    std::string key = name;
    key.push_back('\x01');
    key += labels;
    auto it = s.index.find(key);
    if (it != s.index.end()) return {it->second};
    if (s.metrics.size() >= kMaxMetrics) return {};
    auto mi = std::make_unique<MetricInfo>();
    mi->kind = kind;
    mi->name = name;
    mi->labels = labels;
    mi->help = help;
    id = static_cast<int>(s.metrics.size());
    s.metrics.push_back(std::move(mi));
    s.index.emplace(std::move(key), id);
  }
  ensure_exporter();
  return {id};
}

void add(Id id, double delta) noexcept {
  if (!enabled() || !id.valid()) return;
  auto& cell = Shards::local().sum_bits[id.v];
  cell.store(dbits(bits_d(cell.load(std::memory_order_relaxed)) + delta),
             std::memory_order_relaxed);
}

void set_gauge(Id id, double value) noexcept {
  if (!enabled() || !id.valid()) return;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (static_cast<std::size_t>(id.v) < s.metrics.size())
    s.metrics[id.v]->gauge_bits.store(dbits(value), std::memory_order_relaxed);
}

void observe(Id id, double value) noexcept {
  if (!enabled() || !id.valid()) return;
  Shard& sh = Shards::local();
  auto& cnt = sh.count[id.v];
  cnt.store(cnt.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  auto& sum = sh.sum_bits[id.v];
  sum.store(dbits(bits_d(sum.load(std::memory_order_relaxed)) + value),
            std::memory_order_relaxed);
  auto* b = sh.buckets[id.v].load(std::memory_order_relaxed);
  if (!b) {
    b = new std::atomic<std::uint64_t>[kHistBuckets]();
    sh.buckets[id.v].store(b, std::memory_order_release);
  }
  int i = bucket_index(value);
  b[i].store(b[i].load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// --- scraping -------------------------------------------------------------

double MetricSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * count)));
  std::uint64_t cum = 0;
  for (const auto& [i, c] : buckets) {
    cum += c;
    if (cum >= target) {
      if (i == 0) return bucket_upper(0) / 2;
      if (i == kHistBuckets - 1) return bucket_lower(i);
      return std::sqrt(bucket_lower(i) * bucket_upper(i));
    }
  }
  return buckets.empty() ? 0.0 : bucket_lower(buckets.back().first);
}

Snapshot scrape() {
  Snapshot out;
  out.pid = static_cast<long>(::getpid());
  out.hostname = current_hostname();
  out.timestamp = iso8601_timestamp_utc();
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  out.metrics.resize(s.metrics.size());
  std::vector<std::uint64_t> bsum(kHistBuckets);
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const MetricInfo& m = *s.metrics[i];
    MetricSnapshot& ms = out.metrics[i];
    ms.kind = m.kind;
    ms.name = m.name;
    ms.labels = m.labels;
    ms.help = m.help;
    if (m.kind == Kind::Gauge) {
      ms.value = bits_d(m.gauge_bits.load(std::memory_order_relaxed));
      continue;
    }
    double sum = 0.0;
    std::uint64_t cnt = 0;
    std::fill(bsum.begin(), bsum.end(), 0);
    Shards::for_each([&](const Shard& sh) {
      sum += bits_d(sh.sum_bits[i].load(std::memory_order_relaxed));
      cnt += sh.count[i].load(std::memory_order_relaxed);
      if (const auto* b = sh.buckets[i].load(std::memory_order_acquire))
        for (int j = 0; j < kHistBuckets; ++j)
          bsum[j] += b[j].load(std::memory_order_relaxed);
    });
    if (m.kind == Kind::Counter) {
      ms.value = sum;
    } else {
      ms.count = cnt;
      ms.sum = sum;
      for (int j = 0; j < kHistBuckets; ++j)
        if (bsum[j]) ms.buckets.emplace_back(j, bsum[j]);
    }
  }
  return out;
}

std::string prometheus_text(const Snapshot& s) {
  std::string out;
  appendf(out, "# dnc metrics pid=%ld host=%s time=%s\n", s.pid, s.hostname.c_str(),
          s.timestamp.c_str());
  // Prometheus requires every series of a family to be contiguous: group by
  // name, preserving first-registration order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const MetricSnapshot*>> fam;
  for (const auto& m : s.metrics) {
    auto [it, fresh] = fam.try_emplace(m.name);
    if (fresh) order.push_back(m.name);
    it->second.push_back(&m);
  }
  for (const auto& name : order) {
    const auto& series = fam[name];
    appendf(out, "# HELP %s %s\n", name.c_str(), series[0]->help.c_str());
    appendf(out, "# TYPE %s %s\n", name.c_str(), kind_str(series[0]->kind));
    for (const MetricSnapshot* m : series) {
      const char* lb = m->labels.c_str();
      if (m->kind == Kind::Histogram) {
        std::uint64_t cum = 0;
        for (const auto& [i, c] : m->buckets) {
          cum += c;
          appendf(out, "%s_bucket{%s%sle=\"%.9g\"} %llu\n", name.c_str(), lb,
                  m->labels.empty() ? "" : ",", bucket_upper(i),
                  static_cast<unsigned long long>(cum));
        }
        appendf(out, "%s_bucket{%s%sle=\"+Inf\"} %llu\n", name.c_str(), lb,
                m->labels.empty() ? "" : ",",
                static_cast<unsigned long long>(m->count));
        if (m->labels.empty()) {
          appendf(out, "%s_sum %.17g\n", name.c_str(), m->sum);
          appendf(out, "%s_count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(m->count));
        } else {
          appendf(out, "%s_sum{%s} %.17g\n", name.c_str(), lb, m->sum);
          appendf(out, "%s_count{%s} %llu\n", name.c_str(), lb,
                  static_cast<unsigned long long>(m->count));
        }
      } else if (m->labels.empty()) {
        appendf(out, "%s %.17g\n", name.c_str(), m->value);
      } else {
        appendf(out, "%s{%s} %.17g\n", name.c_str(), lb, m->value);
      }
    }
  }
  return out;
}

std::string json_text(const Snapshot& s) {
  std::string out;
  out += "{\n";
  appendf(out, "  \"schema\": \"dnc-metrics-v1\",\n  \"pid\": %ld,\n", s.pid);
  appendf(out, "  \"hostname\": \"%s\",\n", rt::json_escape(s.hostname).c_str());
  appendf(out, "  \"timestamp\": \"%s\",\n", rt::json_escape(s.timestamp).c_str());
  out += "  \"metrics\": [";
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const MetricSnapshot& m = s.metrics[i];
    out += i ? ",\n    {" : "\n    {";
    appendf(out, "\"kind\": \"%s\", \"name\": \"%s\", \"labels\": \"%s\"", kind_str(m.kind),
            rt::json_escape(m.name).c_str(), rt::json_escape(m.labels).c_str());
    appendf(out, ", \"help\": \"%s\"", rt::json_escape(m.help).c_str());
    if (m.kind == Kind::Histogram) {
      appendf(out, ", \"count\": %llu, \"sum\": %.17g, \"buckets\": [",
              static_cast<unsigned long long>(m.count), m.sum);
      for (std::size_t j = 0; j < m.buckets.size(); ++j)
        appendf(out, "%s[%d, %llu]", j ? ", " : "", m.buckets[j].first,
                static_cast<unsigned long long>(m.buckets[j].second));
      out += "]";
    } else {
      appendf(out, ", \"value\": %.17g", m.value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool parse_snapshot(const std::string& text, Snapshot& out, std::string* err) {
  json::Value root;
  if (!json::parse(text, root, err)) return false;
  if (!root.is_object() || root.member_string("schema", "") != "dnc-metrics-v1") {
    if (err) *err = "not a dnc-metrics-v1 snapshot";
    return false;
  }
  out = Snapshot{};
  out.pid = static_cast<long>(root.member_number("pid", 0));
  out.hostname = root.member_string("hostname", "");
  out.timestamp = root.member_string("timestamp", "");
  const json::Value* ms = root.find("metrics");
  if (!ms || !ms->is_array()) {
    if (err) *err = "snapshot has no metrics array";
    return false;
  }
  for (const json::Value& v : ms->array) {
    MetricSnapshot m;
    std::string kind = v.member_string("kind", "counter");
    m.kind = kind == "gauge" ? Kind::Gauge
                             : kind == "histogram" ? Kind::Histogram : Kind::Counter;
    m.name = v.member_string("name", "");
    m.labels = v.member_string("labels", "");
    m.help = v.member_string("help", "");
    m.value = v.member_number("value", 0.0);
    m.count = static_cast<std::uint64_t>(v.member_number("count", 0));
    m.sum = v.member_number("sum", 0.0);
    if (const json::Value* b = v.find("buckets"); b && b->is_array())
      for (const json::Value& pair : b->array)
        if (pair.is_array() && pair.array.size() == 2)
          m.buckets.emplace_back(static_cast<int>(pair.array[0].number_or(0)),
                                 static_cast<std::uint64_t>(pair.array[1].number_or(0)));
    out.metrics.push_back(std::move(m));
  }
  return true;
}

namespace {

std::string series_key(const MetricSnapshot& m) {
  return m.labels.empty() ? m.name : m.name + "{" + m.labels + "}";
}

void render_one(std::string& out, const MetricSnapshot& m) {
  std::string key = series_key(m);
  if (m.kind == Kind::Histogram) {
    double mean = m.count ? m.sum / static_cast<double>(m.count) : 0.0;
    appendf(out, "%-9s %-64s count=%llu mean=%.4g p50=%.4g p90=%.4g p99=%.4g\n",
            kind_str(m.kind), key.c_str(), static_cast<unsigned long long>(m.count), mean,
            m.quantile(0.50), m.quantile(0.90), m.quantile(0.99));
  } else {
    appendf(out, "%-9s %-64s %.10g\n", kind_str(m.kind), key.c_str(), m.value);
  }
}

}  // namespace

std::string render_snapshot(const Snapshot& s) {
  std::string out;
  appendf(out, "metrics snapshot  pid=%ld  host=%s  time=%s  (%zu series)\n", s.pid,
          s.hostname.c_str(), s.timestamp.c_str(), s.metrics.size());
  for (const auto& m : s.metrics) render_one(out, m);
  return out;
}

std::string render_diff(const Snapshot& a, const Snapshot& b) {
  std::string out;
  appendf(out, "metrics diff  %s (%s)  ->  %s (%s)\n", a.timestamp.c_str(),
          a.hostname.c_str(), b.timestamp.c_str(), b.hostname.c_str());
  std::map<std::string, const MetricSnapshot*> in_a;
  for (const auto& m : a.metrics) in_a.emplace(series_key(m), &m);
  for (const auto& mb : b.metrics) {
    std::string key = series_key(mb);
    auto it = in_a.find(key);
    if (it == in_a.end()) {
      render_one(out, mb);  // new series: the delta is the whole series
      continue;
    }
    const MetricSnapshot& ma = *it->second;
    in_a.erase(it);
    if (mb.kind == Kind::Gauge) {
      if (ma.value != mb.value)
        appendf(out, "%-9s %-64s %.10g -> %.10g\n", "gauge", key.c_str(), ma.value,
                mb.value);
      continue;
    }
    if (mb.kind == Kind::Counter) {
      double delta = mb.value - ma.value;
      if (delta != 0.0) appendf(out, "%-9s %-64s +%.10g\n", "counter", key.c_str(), delta);
      continue;
    }
    // Histogram: subtract bucket-wise, then summarise the delta population.
    MetricSnapshot d = mb;
    d.count = mb.count >= ma.count ? mb.count - ma.count : 0;
    d.sum = mb.sum - ma.sum;
    std::map<int, std::uint64_t> db(mb.buckets.begin(), mb.buckets.end());
    for (const auto& [i, c] : ma.buckets) {
      auto bit = db.find(i);
      if (bit != db.end()) bit->second = bit->second >= c ? bit->second - c : 0;
    }
    d.buckets.assign(db.begin(), db.end());
    d.buckets.erase(std::remove_if(d.buckets.begin(), d.buckets.end(),
                                   [](const auto& p) { return p.second == 0; }),
                    d.buckets.end());
    if (d.count) render_one(out, d);
  }
  for (const auto& [key, ma] : in_a)
    appendf(out, "%-9s %-64s (removed)\n", kind_str(ma->kind), key.c_str());
  return out;
}

// --- export ---------------------------------------------------------------

std::string configured_export_path() {
  State& s = state();
  (void)enabled();  // force env parse
  std::lock_guard<std::mutex> lk(s.mu);
  return s.export_path;
}

std::string export_now(const std::string& path) {
  std::string base = path.empty() ? configured_export_path() : path;
  if (base.empty()) return "";
  State& s = state();
  unsigned long seq = s.export_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string prom_path = expand_path_placeholders(base, seq);
  const Snapshot snap = scrape();
  if (!write_text_file(prom_path, prometheus_text(snap))) return "";
  write_text_file(prom_path + ".json", json_text(snap));
  return prom_path;
}

void ensure_exporter() {
  if (!enabled()) return;
  State& s = state();
  std::string path;
  double interval = 0;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.exporter_installed) return;
    s.exporter_installed = true;
    path = s.export_path;
    interval = s.interval_s;
  }
  if (path.empty()) return;
  std::atexit([] { export_now(); });
  if (interval > 0) {
    // Detached by design: State is leaked, export_now only touches leaked
    // state and libc I/O, so a scrape racing process exit stays safe.
    std::thread([interval] {
      for (;;) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
        if (enabled()) export_now();
      }
    }).detach();
  }
}

// --- introspection --------------------------------------------------------

std::size_t registry_size() noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.metrics.size();
}

std::size_t shard_count() noexcept { return Shards::size(); }

void reset_for_tests() {
  State& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.metrics.clear();
    s.index.clear();
    s.export_seq.store(0, std::memory_order_relaxed);
  }
  Shards::clear();
  gate.refresh();
}

}  // namespace dnc::obs::metrics
