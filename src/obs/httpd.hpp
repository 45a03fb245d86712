// Live introspection endpoint: a dependency-free HTTP/1.1 server on its
// own thread that lets an operator look inside a *running* solver process.
// Every surface built so far (SolveReport, Perfetto traces, the metrics
// registry, the flight recorder) is post-mortem and file-based; this server
// turns them into live GET endpoints without stopping writers:
//
//   /metrics            Prometheus text exposition of a fresh scrape
//   /varz               dnc-metrics-v1 JSON snapshot of the same scrape
//   /healthz            JSON liveness: version/git commit, hostname, pid,
//                       uptime, last-solve summary (driver, n, seconds,
//                       health residuals), flight-recorder dump count
//   /flight             flight-recorder reports of the solve ring as JSONL
//                       (newest last)
//   /history            records of the solve ring as JSONL (newest last)
//   /trace?next=1       arm a one-shot Perfetto capture of the next solve;
//                       a follow-up GET /trace returns (and clears) it
//   /profile?seconds=N  on-demand CPU profile via the sampling profiler
//                       (folded-stack text; N clamped to [0.05, 120],
//                       optional &hz=H)
//
// Knob:
//   DNC_HTTP   unset or an off spelling = disabled (enabled() is one
//              relaxed load + branch, nothing binds); "8080" or ":8080" =
//              127.0.0.1:8080; "addr:port" = explicit bind address; port 0
//              or 1/on/true/yes = an ephemeral port on 127.0.0.1
//              (bound_port() / the startup log line report the real one).
//
// The server binds lazily: the first solve's record_solve_telemetry() (or
// an explicit ensure_started()) starts the thread. Serial request handling
// -- an introspection endpoint for one process needs no concurrency, and it
// keeps every handler trivially race-free against its own kind.
#pragma once

#include <cstdint>
#include <string>

namespace dnc::obs {
struct SolveReport;
}
namespace dnc::rt {
struct Trace;
}

namespace dnc::obs::httpd {

/// True when DNC_HTTP configures a server (the env is read once and
/// cached). Does NOT imply the server is running yet -- see ensure_started.
bool enabled() noexcept;
/// Re-reads DNC_HTTP (tests setenv mid-process). Does not stop a server
/// that is already running; combine with stop_for_tests().
void refresh_from_env() noexcept;

/// Starts the server thread if DNC_HTTP is set and it is not yet running.
/// Returns true when a server is (now) listening. Safe to call from every
/// solve epilogue: after the first bind it is one atomic load.
bool ensure_started();

/// Explicit start on `addr`:`port` regardless of DNC_HTTP (tests; port 0 =
/// ephemeral). Fails (false) when already running or the bind fails.
bool start(const std::string& addr, std::uint16_t port);

/// Port actually bound (resolves ephemeral 0), 0 when not running.
std::uint16_t bound_port();
/// Address actually bound, "" when not running.
std::string bound_address();
/// True while the server thread is accepting connections.
bool running() noexcept;

/// Requests served so far (test/telemetry hook).
std::uint64_t requests_served();

/// True when /trace?next=1 armed a capture that has not been fulfilled;
/// record_solve_telemetry checks this to decide whether to build the
/// Perfetto JSON for an otherwise-untraced solve.
bool trace_capture_armed() noexcept;
/// Offers a finished solve to the one-shot trace capture: when armed, the
/// Perfetto JSON is rendered and stored for the next GET /trace. `trace`
/// may be null (no scheduler trace) -- the arm stays set for a later solve.
void offer_captured_trace(const SolveReport& report, const rt::Trace* trace);

/// Last-solve summary for /healthz; also updated by record_solve_telemetry.
void note_solve(const SolveReport& report);

/// Stops the server thread and joins it; idempotent. (Production processes
/// just exit -- the socket dies with them; tests cycle servers.)
void stop_for_tests();

// --- minimal HTTP client (tools + tests) -----------------------------------

/// Blocking HTTP/1.1 GET of http://host:port/target. Returns true and
/// fills `status` / `body` on any well-formed response (including 4xx/5xx);
/// false on connect/parse failure ('err' gets the reason). No TLS, no
/// redirects, no chunked encoding -- exactly what this server emits.
bool http_get(const std::string& host, std::uint16_t port, const std::string& target,
              int& status, std::string& body, std::string* err = nullptr);

/// Parses "http://host:port/path" (or "host:port/path") into pieces.
/// Defaults: host 127.0.0.1 when empty, path "/" when absent. Returns
/// false on a missing/invalid port.
bool parse_url(const std::string& url, std::string& host, std::uint16_t& port,
               std::string& path);

}  // namespace dnc::obs::httpd
