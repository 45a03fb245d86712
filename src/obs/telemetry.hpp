// The one call a driver epilogue makes to feed the always-on telemetry:
// record_solve_telemetry() fans a finished SolveReport out to its two
// consumers: the history archive (obs/history: the report as one JSONL
// line, which `dnc metrics` aggregates across solves) and the flight
// recorder (obs/flight: the solve ring and its anomaly dump). Every
// consumer is behind its env::Gate; drivers call this only when
// solve_telemetry_wanted().
#pragma once

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs {

/// True when any consumer wants per-solve data: the flight recorder, the
/// history archive or the DNC_CRASH_DUMP handlers (which install lazily
/// from the first solve and dump the flight ring). Drivers use this to
/// decide whether to arm the HealthProbe and to substitute a local
/// SolveStats when the caller passed none (the report must exist for the
/// telemetry to have something to record).
bool solve_telemetry_wanted() noexcept;

/// Appends the report to the history archive (history::append) and hands
/// it to the flight recorder (flight::observe), which keeps it in the solve
/// ring and may write an anomaly dump.
/// `trace` (optional) is only used for the flight recorder's Perfetto dump.
void record_solve_telemetry(const SolveReport& report, const rt::Trace* trace);

}  // namespace dnc::obs
