#include "obs/httpd.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/cpu_features.hpp"
#include "common/env.hpp"
#include "common/version.hpp"
#include "obs/flight.hpp"
#include "obs/history.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"

namespace dnc::obs::httpd {
namespace {

// Leaked singleton, same reasoning as the metrics/flight State: the server
// thread and late requests may race process teardown.
struct State {
  std::mutex mu;
  std::thread server;
  int listen_fd = -1;
  int stop_pipe[2] = {-1, -1};
  std::string addr;            // configured bind address
  std::uint16_t port = 0;      // configured port (0 = ephemeral)
  std::string bound_addr;      // actual
  std::uint16_t bound_port_v = 0;
  std::chrono::steady_clock::time_point started_at;
  // /healthz last-solve summary (under mu).
  bool have_solve = false;
  std::string last_driver, last_precision, last_timestamp;
  long last_n = 0;
  double last_seconds = 0.0;
  bool last_has_health = false;
  double last_residual = 0.0, last_ortho = 0.0;
  std::uint64_t solves = 0;
  // /trace one-shot capture (armed flag is lock-free for the telemetry-side
  // fast path; the payload lives under mu).
  std::string captured_trace;
};

State& state() {
  static State* s = new State;
  return *s;
}

std::atomic<bool> g_running{false};
std::atomic<std::uint64_t> g_requests{0};
// Connections handed off to detached workers (/profile); stop_for_tests
// drains this before resetting state so no worker outlives the "server".
std::atomic<int> g_handed_off{0};
std::atomic<bool> g_trace_armed{false};
/// Parses DNC_HTTP ("8080", ":8080", "addr:port") into the state. A
/// malformed spec leaves the server off.
bool configure(const char* value) {
  if (value == nullptr) return false;
  const std::string spec = value;
  const std::string::size_type colon = spec.rfind(':');
  std::string addr = "127.0.0.1";
  if (colon != std::string::npos && colon > 0) addr = spec.substr(0, colon);
  const std::string port_s = colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (port_s.empty()) return false;
  char* end = nullptr;
  const long p = std::strtol(port_s.c_str(), &end, 10);
  if (!end || *end || p < 0 || p > 65535) return false;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.addr = addr;
  s.port = static_cast<std::uint16_t>(p);
  return true;
}

constinit env::Gate gate{"DNC_HTTP", "127.0.0.1:0", configure};

// --- response plumbing ------------------------------------------------------

void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t w = ::send(fd, data, len, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    data += w;
    len -= static_cast<std::size_t>(w);
  }
}

void respond(int fd, int status, const char* reason, const char* content_type,
             const std::string& body) {
  char hdr[256];
  int n = std::snprintf(hdr, sizeof hdr,
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n"
                        "\r\n",
                        status, reason, content_type, body.size());
  write_all(fd, hdr, static_cast<std::size_t>(n));
  write_all(fd, body.data(), body.size());
}

/// Value of `key` in a query string "a=1&b=2" ("" when absent).
std::string query_param(const std::string& query, const std::string& key) {
  std::string::size_type pos = 0;
  while (pos < query.size()) {
    std::string::size_type amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    std::string::size_type eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp && query.compare(pos, eq - pos, key) == 0)
      return query.substr(eq + 1, amp - eq - 1);
    pos = amp + 1;
  }
  return "";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20)
      out += c;
    else
      out += ' ';
  }
  out += "\"";
  return out;
}

// --- endpoint bodies --------------------------------------------------------

std::string healthz_body() {
  State& s = state();
  char num[64];
  std::string out = "{\n  \"status\": \"ok\",\n";
  out += "  \"git_commit\": " + json_str(version::kGitCommit) + ",\n";
  out += "  \"build_type\": " + json_str(version::kBuildType) + ",\n";
  out += "  \"hostname\": " + json_str(current_hostname()) + ",\n";
  std::snprintf(num, sizeof num, "%ld", static_cast<long>(::getpid()));
  out += std::string("  \"pid\": ") + num + ",\n";
  double uptime = 0.0;
  std::uint64_t solves = 0;
  std::string solve_block;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    uptime = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           s.started_at)
                 .count();
    solves = s.solves;
    if (s.have_solve) {
      solve_block = "  \"last_solve\": {\n";
      solve_block += "    \"driver\": " + json_str(s.last_driver) + ",\n";
      std::snprintf(num, sizeof num, "%ld", s.last_n);
      solve_block += std::string("    \"n\": ") + num + ",\n";
      std::snprintf(num, sizeof num, "%.6g", s.last_seconds);
      solve_block += std::string("    \"seconds\": ") + num + ",\n";
      solve_block += "    \"precision\": " + json_str(s.last_precision) + ",\n";
      solve_block += "    \"timestamp\": " + json_str(s.last_timestamp);
      if (s.last_has_health) {
        std::snprintf(num, sizeof num, "%.6g", s.last_residual);
        solve_block += std::string(",\n    \"max_rel_residual\": ") + num;
        std::snprintf(num, sizeof num, "%.6g", s.last_ortho);
        solve_block += std::string(",\n    \"max_ortho_error\": ") + num;
      }
      solve_block += "\n  },\n";
    }
  }
  std::snprintf(num, sizeof num, "%.3f", uptime);
  out += std::string("  \"uptime_seconds\": ") + num + ",\n";
  std::snprintf(num, sizeof num, "%llu", static_cast<unsigned long long>(solves));
  out += std::string("  \"solves_observed\": ") + num + ",\n";
  out += solve_block;
  // Detected machine hierarchy the scheduler's victim ordering uses.
  const CpuTopology& topo = cpu_topology();
  out += "  \"topology\": {\n";
  out += "    \"source\": " + json_str(topo.source) + ",\n";
  std::snprintf(num, sizeof num, "%d", topo.cpus);
  out += std::string("    \"cpus\": ") + num + ",\n";
  std::snprintf(num, sizeof num, "%d", topo.sockets);
  out += std::string("    \"sockets\": ") + num + ",\n";
  std::snprintf(num, sizeof num, "%d", topo.l3_domains);
  out += std::string("    \"l3_domains\": ") + num + "\n  },\n";
  std::snprintf(num, sizeof num, "%lu", flight::dump_count());
  out += std::string("  \"flight_dumps\": ") + num + ",\n";
  std::snprintf(num, sizeof num, "%zu", history::ring_reports());
  out += std::string("  \"flight_ring\": ") + num + ",\n";
  out += std::string("  \"metrics_enabled\": ") +
         (metrics::enabled() ? "true" : "false") + ",\n";
  out += std::string("  \"profiler_active\": ") +
         (profiler::active() ? "true" : "false") + "\n}\n";
  return out;
}

std::string trace_body(const std::string& query, int& status, const char** ctype) {
  State& s = state();
  *ctype = "text/plain; charset=utf-8";
  if (query_param(query, "next") == "1") {
    g_trace_armed.store(true, std::memory_order_release);
    status = 200;
    return "armed: the next solve's Perfetto trace will be captured; "
           "GET /trace to collect it\n";
  }
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.captured_trace.empty()) {
    status = 404;
    return g_trace_armed.load(std::memory_order_relaxed)
               ? "armed, no traced solve completed yet\n"
               : "no capture armed; GET /trace?next=1 first\n";
  }
  status = 200;
  *ctype = "application/json";
  std::string out;
  out.swap(s.captured_trace);
  return out;
}

/// Handles one parsed request. Returns true when ownership of `fd` was
/// handed off to a worker thread (the caller must not close it).
bool handle_request(int fd, const std::string& path, const std::string& query) {
  g_requests.fetch_add(1, std::memory_order_relaxed);
  if (path == "/metrics") {
    respond(fd, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            metrics::prometheus_text(metrics::scrape()));
  } else if (path == "/varz") {
    respond(fd, 200, "OK", "application/json",
            metrics::json_text(metrics::scrape()));
  } else if (path == "/healthz") {
    respond(fd, 200, "OK", "application/json", healthz_body());
  } else if (path == "/flight") {
    respond(fd, 200, "OK", "application/x-ndjson", history::flight_jsonl());
  } else if (path == "/history") {
    respond(fd, 200, "OK", "application/x-ndjson", history::ring_jsonl());
  } else if (path == "/trace") {
    int status = 200;
    const char* ctype = "text/plain";
    std::string body = trace_body(query, status, &ctype);
    respond(fd, status, status == 200 ? "OK" : "Not Found", ctype, body);
  } else if (path == "/profile") {
    std::string secs = query_param(query, "seconds");
    std::string hz = query_param(query, "hz");
    double seconds = secs.empty() ? 1.0 : std::atof(secs.c_str());
    int hz_i = hz.empty() ? 0 : std::atoi(hz.c_str());
    // The capture blocks for the whole window, so it must not run on the
    // serial server thread: hand the socket to a detached worker and keep
    // serving /metrics //healthz scrapes meanwhile. profile_for serialises
    // concurrent captures internally.
    g_handed_off.fetch_add(1, std::memory_order_acq_rel);
    std::thread([fd, seconds, hz_i] {
      respond(fd, 200, "OK", "text/plain; charset=utf-8",
              profiler::profile_for(seconds, hz_i));
      ::close(fd);
      g_handed_off.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
    return true;
  } else if (path == "/") {
    respond(fd, 200, "OK", "text/plain; charset=utf-8",
            "dnc introspection endpoints:\n"
            "  /metrics  /varz  /healthz  /flight  /history\n"
            "  /trace?next=1  (then /trace)\n"
            "  /profile?seconds=N[&hz=H]\n");
  } else {
    respond(fd, 404, "Not Found", "text/plain", "unknown endpoint\n");
  }
  return false;
}

void serve_connection(int fd) {
  // Bound the read so a half-open client cannot wedge the server thread.
  struct timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string req;
  char buf[2048];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
    ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    req.append(buf, static_cast<std::size_t>(r));
  }
  std::string::size_type eol = req.find("\r\n");
  if (eol == std::string::npos) {
    ::close(fd);
    return;
  }
  std::string line = req.substr(0, eol);
  std::string::size_type sp1 = line.find(' ');
  std::string::size_type sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 <= sp1) {
    respond(fd, 400, "Bad Request", "text/plain", "malformed request line\n");
    ::close(fd);
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET" && method != "HEAD") {
    respond(fd, 405, "Method Not Allowed", "text/plain", "GET only\n");
    ::close(fd);
    return;
  }
  std::string path = target, query;
  std::string::size_type q = target.find('?');
  if (q != std::string::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }
  if (!handle_request(fd, path, query)) ::close(fd);
}

void server_loop(int listen_fd, int stop_fd) {
  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {stop_fd, POLLIN, 0};
    int r = ::poll(fds, 2, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents) break;
    if (!(fds[0].revents & POLLIN)) continue;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
  }
  ::close(listen_fd);
}

/// Binds and launches the thread; s.mu held by the caller.
bool start_locked(State& s, const std::string& addr, std::uint16_t port) {
  if (g_running.load(std::memory_order_acquire)) return false;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t slen = sizeof sa;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &slen);
  if (::pipe(s.stop_pipe) != 0) {
    ::close(fd);
    return false;
  }
  s.listen_fd = fd;
  char abuf[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &sa.sin_addr, abuf, sizeof abuf);
  s.bound_addr = abuf;
  s.bound_port_v = ntohs(sa.sin_port);
  s.started_at = std::chrono::steady_clock::now();
  const int stop_fd = s.stop_pipe[0];
  s.server = std::thread([fd, stop_fd] { server_loop(fd, stop_fd); });
  g_running.store(true, std::memory_order_release);
  std::fprintf(stderr, "[dnc_http] listening on %s:%u\n", s.bound_addr.c_str(),
               unsigned(s.bound_port_v));
  return true;
}

}  // namespace

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

bool ensure_started() {
  if (!enabled()) return false;
  if (g_running.load(std::memory_order_acquire)) return true;
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (g_running.load(std::memory_order_acquire)) return true;
  return start_locked(s, s.addr, s.port);
}

bool start(const std::string& addr, std::uint16_t port) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return start_locked(s, addr, port);
}

std::uint16_t bound_port() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return g_running.load(std::memory_order_acquire) ? s.bound_port_v : 0;
}

std::string bound_address() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return g_running.load(std::memory_order_acquire) ? s.bound_addr : "";
}

bool running() noexcept { return g_running.load(std::memory_order_acquire); }

std::uint64_t requests_served() { return g_requests.load(std::memory_order_relaxed); }

bool trace_capture_armed() noexcept {
  return g_trace_armed.load(std::memory_order_acquire);
}

void offer_captured_trace(const SolveReport& report, const rt::Trace* trace) {
  if (!trace_capture_armed() || !trace) return;
  std::string json = perfetto_trace_json(*trace, &report);
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.captured_trace = std::move(json);
  g_trace_armed.store(false, std::memory_order_release);
}

void note_solve(const SolveReport& report) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.have_solve = true;
  ++s.solves;
  s.last_driver = report.driver;
  s.last_precision = report.precision.empty() ? "f64" : report.precision;
  s.last_timestamp = report.timestamp;
  s.last_n = report.n;
  s.last_seconds = report.seconds;
  s.last_has_health = report.has_health;
  s.last_residual = report.health.max_rel_residual;
  s.last_ortho = report.health.max_ortho_error;
}

void stop_for_tests() {
  State& s = state();
  std::thread joiner;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (!g_running.load(std::memory_order_acquire)) return;
    char b = 'q';
    (void)!::write(s.stop_pipe[1], &b, 1);
    joiner.swap(s.server);
  }
  joiner.join();
  // Drain detached /profile workers: they still own their sockets and run
  // profile_for; a bounded wait (windows are clamped well below this) keeps
  // the reset from racing a worker's final respond/close.
  for (int i = 0; i < 600 && g_handed_off.load(std::memory_order_acquire) > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::lock_guard<std::mutex> lk(s.mu);
  ::close(s.stop_pipe[0]);
  ::close(s.stop_pipe[1]);
  s.stop_pipe[0] = s.stop_pipe[1] = -1;
  s.listen_fd = -1;
  s.bound_addr.clear();
  s.bound_port_v = 0;
  s.have_solve = false;
  s.solves = 0;
  s.captured_trace.clear();
  g_trace_armed.store(false, std::memory_order_relaxed);
  g_running.store(false, std::memory_order_release);
}

// --- client ----------------------------------------------------------------

bool parse_url(const std::string& url, std::string& host, std::uint16_t& port,
               std::string& path) {
  std::string rest = url;
  if (rest.rfind("http://", 0) == 0) rest = rest.substr(7);
  std::string::size_type slash = rest.find('/');
  std::string authority = slash == std::string::npos ? rest : rest.substr(0, slash);
  path = slash == std::string::npos ? "/" : rest.substr(slash);
  std::string::size_type colon = authority.rfind(':');
  if (colon == std::string::npos) return false;
  host = authority.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  char* end = nullptr;
  long p = std::strtol(authority.c_str() + colon + 1, &end, 10);
  if (!end || *end || p <= 0 || p > 65535) return false;
  port = static_cast<std::uint16_t>(p);
  return true;
}

bool http_get(const std::string& host, std::uint16_t port, const std::string& target,
              int& status, std::string& body, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = "socket failed";
    return false;
  }
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  const char* addr = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, addr, &sa.sin_addr) != 1) {
    if (err) *err = "unsupported host (IPv4 literal or localhost only): " + host;
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    if (err) *err = "connect to " + host + " failed: " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  // /profile can legitimately take the profiling window to answer.
  struct timeval tv{150, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                    "\r\nConnection: close\r\n\r\n";
  write_all(fd, req.data(), req.size());
  std::string resp;
  char buf[4096];
  for (;;) {
    ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  if (resp.rfind("HTTP/1.", 0) != 0) {
    if (err) *err = "malformed response";
    return false;
  }
  status = std::atoi(resp.c_str() + 9);
  std::string::size_type hdr_end = resp.find("\r\n\r\n");
  body = hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
  return true;
}

}  // namespace dnc::obs::httpd
