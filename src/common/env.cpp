#include "common/env.hpp"

#include <cstdlib>
#include <cstring>

namespace dnc::env {

const char* raw(const char* name) noexcept { return std::getenv(name); }

bool is_set(const char* name) noexcept {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

std::string str(const char* name, const std::string& dflt) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : dflt;
}

namespace {

bool is_one_of(const char* v, const char* const (&words)[4]) noexcept {
  for (const char* w : words)
    if (std::strcmp(v, w) == 0) return true;
  return false;
}

constexpr const char* kOff[] = {"0", "off", "false", "no"};
constexpr const char* kOn[] = {"1", "on", "true", "yes"};

}  // namespace

bool flag(const char* name, bool dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return !is_one_of(v, kOff);
}

bool Gate::refresh() noexcept {
  const char* v = std::getenv(name_);
  if (v == nullptr || *v == '\0' || is_one_of(v, kOff))
    v = nullptr;
  else if (is_one_of(v, kOn))
    v = on_value_;
  const bool on = configure_(v);
  state_.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

long integer(const char* name, long dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return end != v ? parsed : dflt;
}

double number(const char* name, double dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end != v ? parsed : dflt;
}

const Knob* knob_reference() noexcept {
  // Keep alphabetical; README's knob table mirrors this list. "off" in a
  // values column stands for every off spelling of env::Gate.
  static const Knob kKnobs[] = {
      {"DNC_CRASH_DUMP", "off/on/path", "crash-dump file written on fatal signals (on = dnc_crash.%p.txt)"},
      {"DNC_FLIGHT", "off/on/prefix", "anomaly flight recorder: dump the solve ring when a solve trips a trigger (on = dnc_flight.%p)"},
      {"DNC_FLIGHT_DEFL", "frac", "flight-recorder trigger: merge-carrying solves deflating less than this (default off)"},
      {"DNC_FLIGHT_LATENCY", "seconds", "flight-recorder trigger: solves slower than this (default off)"},
      {"DNC_FLIGHT_MAX_DUMPS", "int", "cap on flight-recorder dump files per process"},
      {"DNC_FLIGHT_RESID", "float", "flight-recorder trigger: sampled relative residual above this (default 1e-8)"},
      {"DNC_HISTORY", "off/on/path", "append one distilled record per solve to this JSONL archive (on = dnc_history.jsonl)"},
      {"DNC_HISTORY_MAX_BYTES", "bytes", "rotate the history archive to <path>.1 at this size (default 16 MiB)"},
      {"DNC_HWC", "off/on/perf/rusage", "per-task hardware-counter sampling backend"},
      {"DNC_METRICS", "off/on/path", "always-on metrics registry; a path also exports Prometheus text + JSON there"},
      {"DNC_METRICS_INTERVAL", "seconds", "metrics sampler period"},
      {"DNC_PREC", "f64/f32/f32refine", "solve precision path override"},
      {"DNC_PROFILE", "path", "write folded-stack profile here at exit"},
      {"DNC_PROFILE_HZ", "off/on/hz", "continuous sampling-profiler rate (on = 97)"},
      {"DNC_REPORT", "path", "write the SolveReport JSON of each solve here"},
      {"DNC_SIMD", "scalar/avx2/avx512", "clamp the SIMD kernel dispatch level"},
      {"DNC_TOPOLOGY", "sockets x l3 x cpus | flat", "override the detected CPU topology for steal ordering"},
      {"DNC_TRACE", "path", "write the Perfetto trace of each solve here"},
      {nullptr, nullptr, nullptr},
  };
  return kKnobs;
}

}  // namespace dnc::env
