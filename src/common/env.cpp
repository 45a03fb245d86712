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

bool flag(const char* name, bool dflt) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0 || std::strcmp(v, "no") == 0);
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
  // Keep alphabetical; README's knob table mirrors this list.
  static const Knob kKnobs[] = {
      {"DNC_CRASH_DUMP", "directory", "write crash dumps (flight-recorder state) here on fatal signals"},
      {"DNC_FLIGHT", "0/1", "anomaly flight recorder: keep ring-buffer traces of anomalous solves"},
      {"DNC_FLIGHT_DEFL", "frac", "flight-recorder trigger: merge-carrying solves deflating less than this (default off)"},
      {"DNC_FLIGHT_K", "int", "flight-recorder ring capacity in SolveReports (default 8)"},
      {"DNC_FLIGHT_LATENCY", "seconds", "flight-recorder trigger: solves slower than this (default off)"},
      {"DNC_FLIGHT_MAX_DUMPS", "int", "cap on flight-recorder dump files per process"},
      {"DNC_FLIGHT_RESID", "float", "flight-recorder trigger: sampled relative residual above this (default 1e-8)"},
      {"DNC_HISTORY", "path", "append one distilled record per solve to this JSONL archive"},
      {"DNC_HISTORY_MAX_BYTES", "bytes", "rotate the history archive to <path>.1 at this size (default 16 MiB)"},
      {"DNC_HTTP", "[addr:]port", "serve /healthz /metrics /profile /trace /history over HTTP"},
      {"DNC_HWC", "off/on/perf/rusage", "per-task hardware-counter sampling backend"},
      {"DNC_METRICS", "0/1", "always-on metrics registry (Prometheus text on /metrics)"},
      {"DNC_METRICS_INTERVAL", "seconds", "metrics sampler period"},
      {"DNC_PREC", "f64/f32/f32_refine", "solve precision path override"},
      {"DNC_PROFILE", "path", "write folded-stack profile here at exit"},
      {"DNC_PROFILE_HZ", "int", "sampling-profiler frequency (0 = off)"},
      {"DNC_REPORT", "path", "write the SolveReport JSON of each solve here"},
      {"DNC_SCHED", "steal/central", "runtime scheduling policy"},
      {"DNC_SIMD", "scalar/sse2/avx2/avx512", "clamp the SIMD kernel dispatch level"},
      {"DNC_TOPOLOGY", "sockets x l3 x cpus | flat", "override the detected CPU topology for steal ordering"},
      {"DNC_TRACE", "path", "write the Perfetto trace of each solve here"},
      {nullptr, nullptr, nullptr},
  };
  return kKnobs;
}

}  // namespace dnc::env
