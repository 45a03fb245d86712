// Full Perfetto-grade export of a runtime Trace.
//
// Chrome trace-event JSON (the "chrome://tracing" / Perfetto format): one
// complete slice per executed task with process/thread metadata, plus
// everything Perfetto can render beyond slices: flow arrows along the
// executed DAG's dependency edges, per-slice args (task id, merge level,
// block size, panel, ready wait), and counter tracks -- the sampled ready-queue depth from the
// scheduler and, when a SolveReport is supplied, cumulative deflated
// columns over time. Load the output at https://ui.perfetto.dev.
#pragma once

#include <string>

namespace dnc::rt {
struct Trace;
}

namespace dnc::obs {

struct SolveReport;

/// Chrome trace-event JSON with metadata, annotated slices, flow events and
/// counter tracks. `report` is optional: when given, it is embedded whole
/// (compact SolveReport::to_json) as the "dnc_report" metadata record and
/// feeds the deflation counter track.
std::string perfetto_trace_json(const rt::Trace& trace, const SolveReport* report = nullptr);

}  // namespace dnc::obs
