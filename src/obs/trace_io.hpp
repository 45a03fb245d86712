// Reads a Perfetto trace exported by obs::perfetto_trace_json back into an
// rt::Trace and the solve's SolveReport, so `dnc trace --load` and
// `dnc diff` can analyse a trace captured earlier (via DNC_TRACE or a
// flight-recorder dump) without re-running the solve.
//
// The export embeds three dnc-specific metadata records ("dnc_meta" with
// the kind table / memory-bound flags / worker idle, "dnc_report" with the
// whole SolveReport, "dnc_edges" with the dependency edge list); slices
// carry the task id and annotations as args, and the ready_queue_depth
// counter track restores the queue samples. Plain trace-event JSON written
// by other tools (slices and thread metadata only), and traces exported
// before the report was embedded, still load -- kinds are then
// reconstructed from slice names, and the report, edges and scheduler
// extras are simply absent.
//
// Fidelity note: slice timestamps are serialized as microseconds with three
// decimals, so a round trip quantizes times to 1 ns. Derived quantities
// (critical path, makespan) are reproduced to ~n_tasks * 0.5 ns.
#pragma once

#include <string>

#include "runtime/trace.hpp"

namespace dnc::obs {

struct SolveReport;

/// Parses Perfetto/chrome trace-event JSON into `out` and, when `report` is
/// given, the "dnc_report" record into *report (a default SolveReport,
/// driver "", when the trace has none). Returns false (and sets `err` when
/// given) on malformed JSON, a structure that contains no usable slice
/// events, a dnc_report record that is not a report, or an integer field
/// (workers, tid, a counter, an edge id, task, level, size, panel, prio,
/// parent, an hwc slot, any integer of the report) outside the range of
/// its type -- the error names the field.
bool load_perfetto_trace(const std::string& json_text, rt::Trace& out,
                         std::string* err = nullptr, SolveReport* report = nullptr);

/// Reads and parses the file at `path`.
bool load_perfetto_trace_file(const std::string& path, rt::Trace& out,
                              std::string* err = nullptr, SolveReport* report = nullptr);

}  // namespace dnc::obs
