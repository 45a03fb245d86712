// The one call a driver epilogue makes to feed the always-on telemetry:
// record_solve_telemetry() fans a finished SolveReport out to three
// independent consumers: the metrics registry (per-solve counters and
// histograms keyed by driver / precision / size class), the history
// archive (obs/history: the report as one JSONL line) and the flight
// recorder (obs/flight: the solve ring and its anomaly dump). Every
// consumer is behind its env::Gate; drivers call this only when
// solve_telemetry_wanted().
#pragma once

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs {

/// True when any consumer wants per-solve data: metrics, flight recorder,
/// history archive or the DNC_CRASH_DUMP handlers (which install lazily
/// from the first solve). Drivers use this to decide whether to arm the
/// HealthProbe and to substitute a local SolveStats when the caller passed
/// none (the report must exist for the telemetry to have something to
/// record).
bool solve_telemetry_wanted() noexcept;

/// Coarse problem-size bucket used as a metric label, so latency
/// histograms don't mix n=64 leaves with n=16384 production solves:
/// xs < 256 <= s < 1024 <= m < 4096 <= l < 16384 <= xl.
const char* solve_size_class(long n) noexcept;

/// Records the solve into the metrics registry (solves_total, latency /
/// deflation / GEMM-GF/s / health histograms, scheduler-derived counters),
/// appends the report to the history archive (history::append), and hands
/// it to the flight recorder (flight::observe), which keeps it in the solve
/// ring and may write an anomaly dump.
/// `trace` (optional) is only used for the flight recorder's Perfetto dump.
void record_solve_telemetry(const SolveReport& report, const rt::Trace* trace);

}  // namespace dnc::obs
