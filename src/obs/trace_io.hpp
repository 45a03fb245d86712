// Reads a Perfetto trace exported by obs::perfetto_trace_json back into an
// rt::Trace, so `dnc trace --load` can analyse a trace captured earlier (via
// DNC_TRACE) without re-running the solve.
//
// The export embeds two dnc-specific metadata records ("dnc_meta" with the
// kind table / memory-bound flags / worker idle, "dnc_edges" with the
// dependency edge list); slices carry the task id and annotations as args,
// and the ready_queue_depth counter track restores the queue samples.
// Traces written by other tools (or by the plain Trace::chrome_trace_json)
// still load -- kinds are then reconstructed from slice names, edges and
// scheduler extras are simply absent.
//
// Fidelity note: slice timestamps are serialized as microseconds with three
// decimals, so a round trip quantizes times to 1 ns. Derived quantities
// (critical path, makespan) are reproduced to ~n_tasks * 0.5 ns.
#pragma once

#include <string>

#include "runtime/trace.hpp"

namespace dnc::obs {

/// Parses Perfetto/chrome trace-event JSON into `out`. Returns false (and
/// sets `err` when given) on malformed JSON or a structure that contains no
/// usable slice events.
bool load_perfetto_trace(const std::string& json_text, rt::Trace& out,
                         std::string* err = nullptr);

/// Reads and parses the file at `path`.
bool load_perfetto_trace_file(const std::string& path, rt::Trace& out,
                              std::string* err = nullptr);

}  // namespace dnc::obs
