#include "obs/crash.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/env.hpp"
#include "common/version.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace dnc::obs::crash {
namespace {

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE};

// The handler can only touch pre-expanded, fixed-size storage: no
// std::string member may be reallocated while crashing.
char g_path[512] = {0};
char g_path_jsonl[512] = {0};
std::atomic<int> g_crashing{0};
std::atomic<bool> g_installed{false};
std::mutex g_mu;
struct sigaction g_old[sizeof kSignals / sizeof kSignals[0]];

bool configure(const char* value) {
  const std::string path = value ? expand_path_placeholders(value, 0) : "";
  const bool on = !path.empty() && path.size() < sizeof g_path - 8;
  std::lock_guard<std::mutex> lk(g_mu);
  std::snprintf(g_path, sizeof g_path, "%s", on ? path.c_str() : "");
  std::snprintf(g_path_jsonl, sizeof g_path_jsonl, "%s%s", on ? path.c_str() : "",
                on ? ".jsonl" : "");
  return on;
}

constinit env::Gate gate{"DNC_CRASH_DUMP", "dnc_crash.%p.txt", configure};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    case 0: return "test";
    default: return "signal";
  }
}

void write_file(const char* path, const char* data, std::size_t len) {
  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  while (len > 0) {
    ssize_t w = ::write(fd, data, len);
    if (w <= 0) break;
    data += w;
    len -= static_cast<std::size_t>(w);
  }
  ::close(fd);
}

void restore_and_reraise(int sig) {
  signal(sig, SIG_DFL);
  raise(sig);
}

void crash_handler(int sig, siginfo_t*, void*) {
  // Reentry (a fault inside the dump path) re-raises immediately.
  if (g_crashing.exchange(1, std::memory_order_acq_rel) != 0) {
    restore_and_reraise(sig);
    return;
  }
  const std::string text = dump_text(sig);
  write_file(g_path, text.data(), text.size());
  const std::string ring = flight::ring_jsonl(/*best_effort=*/true);
  if (!ring.empty()) write_file(g_path_jsonl, ring.data(), ring.size());
  restore_and_reraise(sig);
}

}  // namespace

bool enabled() noexcept { return gate.enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

bool ensure_installed() {
  if (!enabled()) return false;
  if (g_installed.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lk(g_mu);
  if (g_installed.load(std::memory_order_relaxed)) return true;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = crash_handler;
  sa.sa_flags = SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  std::size_t i = 0;
  for (int sig : kSignals) sigaction(sig, &sa, &g_old[i++]);
  g_installed.store(true, std::memory_order_release);
  return true;
}

std::string dump_path() {
  if (!enabled()) return "";
  std::lock_guard<std::mutex> lk(g_mu);
  return g_path;
}

std::string dump_text(int sig) {
  std::string out = "# dnc crash dump\n";
  out += "# signal: ";
  out += signal_name(sig);
  out += "\n# pid: " + std::to_string(static_cast<long>(::getpid()));
  out += "\n# git_commit: ";
  out += version::kGitCommit;
  out += "\n# hostname: " + current_hostname();
  out += "\n";
  // No blocking lock here: the crashing thread may hold the metrics mutex.
  // The solve ring goes to the .jsonl beside the dump, also best-effort.
  metrics::Snapshot snap;
  if (metrics::enabled() && metrics::try_scrape(snap)) out += metrics::prometheus_text(snap);
  return out;
}

}  // namespace dnc::obs::crash
