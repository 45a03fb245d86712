#include "obs/flight.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <mutex>

#include "common/env.hpp"
#include "common/text.hpp"
#include "obs/perfetto.hpp"
#include "runtime/trace.hpp"

namespace dnc::obs::flight {
namespace {

struct Thresholds {
  double max_seconds = 0.0;            ///< 0 = latency trigger off
  double min_deflated_fraction = 0.0;  ///< 0 = deflation trigger off
};

struct Entry {
  unsigned long seq = 0;
  std::string timestamp;
  std::string reason;  ///< trigger that fired ("" = none)
  SolveReport report;
};

// Leaked singleton: observe() may run from driver threads, and the crash
// handler may read the ring, while the process is tearing down.
struct State {
  std::mutex mu;  // guards everything below
  std::string prefix;  // "" = disabled
  Thresholds th;
  unsigned long max_dumps = 4;
  unsigned long dumps = 0;
  std::deque<Entry> ring;  // newest last
  unsigned long seq = 0;
};

State& state() {
  static State* s = new State;
  return *s;
}

bool configure(const char* value) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.prefix = value ? value : "";
  s.th.max_seconds = env::number("DNC_FLIGHT_LATENCY", 0.0);
  s.th.min_deflated_fraction = env::number("DNC_FLIGHT_DEFL", 0.0);
  const long md = env::integer("DNC_FLIGHT_MAX_DUMPS", 4);
  s.max_dumps = static_cast<unsigned long>(md < 0 ? 0 : md);
  return value != nullptr;
}

constinit env::Gate gate{"DNC_FLIGHT", "dnc_flight.%p", configure};

/// sqrt(eps) of the report's working precision: a healthy solve's sampled
/// residual is a small multiple of eps, far below it in either precision.
double residual_trigger(const SolveReport& rep) {
  return rep.precision_bits() == 32 ? std::sqrt(std::numeric_limits<float>::epsilon())
                                    : std::sqrt(std::numeric_limits<double>::epsilon());
}

std::string trigger_reason(const Thresholds& th, const SolveReport& rep) {
  if (rep.has_health && rep.health.max_rel_residual > residual_trigger(rep)) return "residual";
  if (th.max_seconds > 0.0 && rep.seconds > th.max_seconds) return "latency";
  if (th.min_deflated_fraction > 0.0 && rep.merged_columns_total() > 0 &&
      rep.deflated_fraction() < th.min_deflated_fraction)
    return "deflation";
  return "";
}

std::string ring_jsonl_locked() {
  std::string body;
  for (const Entry& en : state().ring) {
    body += "{\"seq\": " + std::to_string(en.seq);
    body += ", \"timestamp\": \"" + en.timestamp + "\"";
    body += ", \"reason\": \"" + en.reason + "\"";
    body += ", \"report\": " + compact_json(en.report.to_json()) + "}\n";
  }
  return body;
}

}  // namespace

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

std::string compact_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  bool in_string = false;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    char c = pretty[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < pretty.size()) {
        out.push_back(pretty[++i]);  // escaped char (quote, backslash, ...)
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      out.push_back(c);
    } else if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
      out.push_back(c);
    }
  }
  return out;
}

std::string observe(const SolveReport& report, const rt::Trace* trace) {
  if (!enabled()) return "";
  State& s = state();
  std::string prefix, ring;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    Entry e;
    e.seq = ++s.seq;
    e.timestamp = report.timestamp.empty() ? iso8601_timestamp_utc() : report.timestamp;
    e.reason = trigger_reason(s.th, report);
    e.report = report;
    const bool dump = !e.reason.empty() && s.dumps < s.max_dumps;
    s.ring.push_back(std::move(e));
    if (s.ring.size() > kRingReports) s.ring.pop_front();
    if (dump) {
      ++s.dumps;
      prefix = expand_path_placeholders(s.prefix, s.dumps) + "." + std::to_string(s.dumps);
      ring = ring_jsonl_locked();
    }
  }
  if (prefix.empty()) return "";
  const std::string jsonl_path = prefix + ".jsonl";
  if (!write_text_file(jsonl_path, ring)) return "";
  if (trace && !trace->events.empty())
    write_text_file(prefix + ".trace.json", perfetto_trace_json(*trace, &report));
  return jsonl_path;
}

std::string ring_jsonl(bool best_effort) {
  State& s = state();
  std::unique_lock<std::mutex> lk(s.mu, std::defer_lock);
  if (!best_effort)
    lk.lock();
  else if (!lk.try_lock())
    return "";
  return ring_jsonl_locked();
}

void reset_for_tests() {
  {
    State& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.dumps = 0;
    s.ring.clear();
    s.seq = 0;
  }
  gate.refresh();
}

}  // namespace dnc::obs::flight
