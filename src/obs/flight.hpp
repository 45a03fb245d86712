// Anomaly flight recorder: a black box for solve postmortems.
//
// Every solve the recorder observes enters its solve ring -- {seq,
// timestamp, reason, full SolveReport} -- which keeps the newest
// kRingReports (8) solves; it is the only solve ring of the process. When
// a solve breaches a threshold -- relative residual too large, latency too
// long, deflation anomalously low -- the ring is dumped as JSONL (one
// compact line per solve, newest last) plus a Perfetto trace of the
// triggering solve, so the postmortem sees not just the bad solve but the
// healthy ones leading up to it. The crash dump (obs/crash) reads the same
// ring.
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

#include <cstddef>
#include <string>

#include "obs/report.hpp"

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs::flight {

/// One relaxed load + branch once initialised (an env::Gate).
bool enabled() noexcept;
void refresh_from_env() noexcept;

inline constexpr std::size_t kRingReports = 8;  ///< solves in the ring

/// Pushes the solve onto the ring with its verdict ("" = healthy); if it
/// trips a threshold (and the dump cap is not exhausted), writes
/// ring_jsonl() and the trace as a dump. Returns the JSONL path, "" when
/// nothing was dumped. No-op ("") when the recorder is off.
std::string observe(const SolveReport& report, const rt::Trace* trace);

/// The ring, one compact {"seq", "timestamp", "reason", "report"} line per
/// solve, newest last: the flight dump and the crash dump. With
/// `best_effort` (crash handler), an already-held ring lock yields ""
/// instead of deadlocking the dying process.
std::string ring_jsonl(bool best_effort = false);

/// Strips insignificant whitespace (string-literal aware) so a pretty
/// to_json() report becomes one JSONL line.
std::string compact_json(const std::string& pretty);

/// Zeroes the dump count, empties the ring and re-reads the env. Test hook.
void reset_for_tests();

}  // namespace dnc::obs::flight
