// Anomaly flight recorder: a black box for solve postmortems.
//
// Every solve the recorder observes enters the process's solve ring
// (obs/history) with the recorder's verdict and its full SolveReport; the
// ring keeps the full reports of the newest history::kRingReports (8)
// solves. When a solve breaches a threshold -- relative residual too large,
// latency too long, deflation anomalously low -- those reports are dumped
// as JSONL (one compact report per line, newest last) plus a Perfetto trace
// of the triggering solve, so the postmortem sees not just the bad solve
// but the healthy ones leading up to it.
//
// Knobs (all read lazily by an env::Gate, refresh_from_env() for tests):
//   DNC_FLIGHT            unset or an off spelling = off; 1/on/true/yes =
//                         on with the default prefix "dnc_flight.%p";
//                         anything else = dump-file prefix (%p expands to
//                         the pid)
//   DNC_FLIGHT_RESID      relative-residual trigger (default 1e-8; applies
//                         only to reports carrying health metrics)
//   DNC_FLIGHT_LATENCY    seconds trigger (default 0 = off)
//   DNC_FLIGHT_DEFL       minimum deflated fraction; a merge-carrying solve
//                         deflating less than this triggers (default 0 = off)
//   DNC_FLIGHT_MAX_DUMPS  per-process dump cap (default 4) so a persistent
//                         condition can't fill the disk
//
// Dump files: <prefix>.<dump#>.jsonl and <prefix>.<dump#>.trace.json.
#pragma once

#include <string>

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs::flight {

/// One relaxed load + branch once initialised, like metrics::enabled().
bool enabled() noexcept;
void refresh_from_env() noexcept;

/// Notes the solve in the ring (history::note) with its verdict and full
/// report; if it trips a threshold (and the dump cap is not exhausted),
/// writes history::flight_jsonl() and the trace as a dump. Returns the
/// JSONL path, "" when nothing was dumped. No-op ("") when the recorder is
/// off.
std::string observe(const SolveReport& report, const rt::Trace* trace);

/// Strips insignificant whitespace (string-literal aware) so a pretty
/// to_json() report becomes one JSONL line.
std::string compact_json(const std::string& pretty);

/// Dumps written so far.
unsigned long dump_count();

/// Zeroes the dump count, empties the ring and re-reads the env. Test hook.
void reset_for_tests();

}  // namespace dnc::obs::flight
