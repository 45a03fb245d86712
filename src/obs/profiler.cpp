#include "obs/profiler.hpp"

#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <ucontext.h>
#include <vector>

#include "common/env.hpp"
#include "common/text.hpp"
#include "obs/report.hpp"

// glibc exposes the SIGEV_THREAD_ID target field under this name only with
// recent headers; the union member itself is stable ABI.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace dnc::obs::profiler {
namespace {

// One captured call stack. pc[0] is the interrupted instruction (leaf);
// pc[1..depth) are return addresses up the frame-pointer chain.
struct Sample {
  void* pc[kMaxDepth];
  int depth;
  int id;                ///< worker id within its tag namespace
  const char* tag;       ///< "worker" / "pool" (static lifetime)
  const char* task;      ///< interned task-kind name or nullptr
};

// Per-registered-thread state. The signal handler (running on the owning
// thread) is the only producer of the ring; drains are the only consumer.
// Everything the handler touches is either thread-owned or read through
// acquire/release pairs, so the handler never takes a lock.
struct ThreadState {
  pid_t tid = 0;
  pthread_t pth{};
  const char* tag = "worker";
  int id = -1;
  std::atomic<const char*> task{nullptr};
  // Stack extents for bounding the frame-pointer walk.
  std::uintptr_t stack_lo = 0, stack_hi = 0;
  // SPSC ring. slots is allocated when the thread is first armed.
  std::atomic<Sample*> slots{nullptr};
  std::atomic<std::uint32_t> head{0}, tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> truncated{0};
  // Timer lifecycle, guarded by the registry mutex.
  timer_t timer{};
  bool timer_armed = false;

  ~ThreadState() { delete[] slots.load(std::memory_order_relaxed); }
};

// Aggregate key: [tag, task, id, depth, pc...] encoded as uintptr_t so one
// map covers attribution and stack. tag/task are interned pointers, hence
// directly comparable.
using AggKey = std::vector<std::uintptr_t>;

struct State {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadState>> threads;  // under mu
  std::map<AggKey, std::uint64_t> agg;                // under mu
  std::uint64_t samples = 0;                          // under mu
  std::uint64_t dropped = 0;                          // under mu (retired threads)
  std::uint64_t truncated = 0;                        // under mu (retired threads)
  int hz = kDefaultHz;                                // active session rate
  bool handler_installed = false;
  bool continuous_boot = false;
  std::string dump_path;  // continuous mode's at-exit dump, set at boot
};

// Leaked: the at-exit dump and detached drainer may outlive static dtors.
State& state() {
  static State* s = new State;
  return *s;
}

std::atomic<bool> g_active{false};
// The DNC_PROFILE_HZ rate while continuous profiling is configured.
std::atomic<int> g_env_hz{kDefaultHz};

bool configure(const char* value) {
  const int hz = value ? std::min(std::atoi(value), 10000) : 0;
  if (hz > 0) g_env_hz.store(hz, std::memory_order_relaxed);
  return hz > 0;
}

constinit env::Gate gate{"DNC_PROFILE_HZ", "97", configure};  // on = kDefaultHz

// --- async-signal-safe stack capture ---------------------------------------

/// Walks the frame-pointer chain from the interrupted context. Bounded by
/// the thread's stack extents and strict monotonicity, so a frame built
/// without a frame pointer ends the walk instead of chasing garbage.
int capture_stack(void* ucontext, const ThreadState* ts, void** out) {
  int depth = 0;
  std::uintptr_t pc = 0, fp = 0, sp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)ucontext;
#endif
  if (pc == 0) return 0;
  out[depth++] = reinterpret_cast<void*>(pc);
  std::uintptr_t lo = sp ? sp : ts->stack_lo;
  const std::uintptr_t hi = ts->stack_hi;
  std::uintptr_t frame = fp;
  while (depth < kMaxDepth) {
    if (frame < lo || frame + 2 * sizeof(void*) > hi || (frame & (sizeof(void*) - 1)))
      break;
    const std::uintptr_t* f = reinterpret_cast<const std::uintptr_t*>(frame);
    const std::uintptr_t ret = f[1];
    const std::uintptr_t next = f[0];
    if (ret < 4096) break;  // null / bogus return address
    out[depth++] = reinterpret_cast<void*>(ret);
    if (next <= frame) break;  // frames must move up the stack
    lo = frame;
    frame = next;
  }
  return depth;
}

void sigprof_handler(int, siginfo_t* si, void* uctx) {
  if (!si || si->si_code != SI_TIMER) return;
  auto* ts = static_cast<ThreadState*>(si->si_value.sival_ptr);
  if (!ts || !g_active.load(std::memory_order_relaxed)) return;
  Sample* slots = ts->slots.load(std::memory_order_acquire);
  if (!slots) return;
  const int saved_errno = errno;
  const std::uint32_t head = ts->head.load(std::memory_order_relaxed);
  const std::uint32_t tail = ts->tail.load(std::memory_order_acquire);
  if (head - tail >= kRingCapacity) {
    ts->dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = slots[head % kRingCapacity];
  s.depth = capture_stack(uctx, ts, s.pc);
  if (s.depth >= kMaxDepth) ts->truncated.fetch_add(1, std::memory_order_relaxed);
  s.id = ts->id;
  s.tag = ts->tag;
  s.task = ts->task.load(std::memory_order_relaxed);
  ts->head.store(head + 1, std::memory_order_release);
  errno = saved_errno;
}

// --- ring draining (registry lock held) -------------------------------------

void drain_thread_locked(State& s, ThreadState& ts) {
  Sample* slots = ts.slots.load(std::memory_order_relaxed);
  if (!slots) return;
  const std::uint32_t head = ts.head.load(std::memory_order_acquire);
  std::uint32_t tail = ts.tail.load(std::memory_order_relaxed);
  AggKey key;
  for (; tail != head; ++tail) {
    const Sample& sm = slots[tail % kRingCapacity];
    key.clear();
    key.reserve(4 + sm.depth);
    key.push_back(reinterpret_cast<std::uintptr_t>(sm.tag));
    key.push_back(reinterpret_cast<std::uintptr_t>(sm.task));
    key.push_back(static_cast<std::uintptr_t>(sm.id));
    key.push_back(static_cast<std::uintptr_t>(sm.depth));
    for (int i = 0; i < sm.depth; ++i)
      key.push_back(reinterpret_cast<std::uintptr_t>(sm.pc[i]));
    ++s.agg[key];
    ++s.samples;
  }
  ts.tail.store(tail, std::memory_order_release);
}

void drain_all_locked(State& s) {
  for (const auto& ts : s.threads) drain_thread_locked(s, *ts);
}

// --- timer lifecycle (registry lock held) ------------------------------------

void install_handler_locked(State& s) {
  if (s.handler_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) == 0) s.handler_installed = true;
}

bool arm_timer_locked(State& s, ThreadState& ts) {
  if (ts.timer_armed) return true;
  if (!ts.slots.load(std::memory_order_relaxed))
    ts.slots.store(new Sample[kRingCapacity], std::memory_order_release);
  clockid_t clk;
  if (pthread_getcpuclockid(ts.pth, &clk) != 0) return false;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_value.sival_ptr = &ts;
  sev.sigev_notify_thread_id = ts.tid;
  if (timer_create(clk, &sev, &ts.timer) != 0) return false;
  const long period_ns = std::max(1000000000L / std::max(s.hz, 1), 100000L);
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(ts.timer, 0, &its, nullptr) != 0) {
    timer_delete(ts.timer);
    return false;
  }
  ts.timer_armed = true;
  return true;
}

void disarm_timer_locked(ThreadState& ts) {
  if (!ts.timer_armed) return;
  timer_delete(ts.timer);
  ts.timer_armed = false;
}

// --- symbolization (dump time only) -----------------------------------------

std::string sanitize_frame(std::string name) {
  for (char& c : name)
    if (c == ';' || c == '\n' || c == '\r') c = ',';
  if (name.size() > 200) {
    name.resize(197);
    name += "...";
  }
  return name;
}

/// Resolves one pc to a frame label. `call_site` shifts return addresses
/// back into the calling instruction's symbol.
std::string symbolize(void* pc, bool call_site) {
  const std::uintptr_t addr =
      reinterpret_cast<std::uintptr_t>(pc) - (call_site ? 1 : 0);
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(addr), &info) && info.dli_sname) {
    int status = 0;
    char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string out = status == 0 && dem ? dem : info.dli_sname;
    std::free(dem);
    return sanitize_frame(std::move(out));
  }
  char buf[64];
  if (dladdr(reinterpret_cast<void*>(addr), &info) && info.dli_fname) {
    const char* base = std::strrchr(info.dli_fname, '/');
    std::snprintf(buf, sizeof buf, "%s+0x%zx", base ? base + 1 : info.dli_fname,
                  static_cast<std::size_t>(addr -
                                           reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
    return sanitize_frame(buf);
  }
  std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(addr));
  return buf;
}

/// Renders `rows` (already aggregated) as folded lines, largest count
/// first.
std::string render_folded(const std::map<AggKey, std::uint64_t>& rows, int hz,
                          std::uint64_t dropped) {
  struct Line {
    std::string text;
    std::uint64_t count;
  };
  std::vector<Line> lines;
  std::map<void*, std::string> leaf_cache, site_cache;
  std::uint64_t total = 0;
  for (const auto& [key, count] : rows) {
    total += count;
    const char* tag = reinterpret_cast<const char*>(key[0]);
    const char* task = reinterpret_cast<const char*>(key[1]);
    const int id = static_cast<int>(key[2]);
    const int depth = static_cast<int>(key[3]);
    std::string text = tag ? tag : "thread";
    text += ":";
    text += std::to_string(id);
    if (task) {
      text += ";task:";
      text += task;
    }
    // Root-first: the deepest captured frame down to the leaf.
    for (int i = depth - 1; i >= 0; --i) {
      void* pc = reinterpret_cast<void*>(key[4 + i]);
      auto& cache = i == 0 ? leaf_cache : site_cache;
      auto it = cache.find(pc);
      if (it == cache.end()) it = cache.emplace(pc, symbolize(pc, i != 0)).first;
      text += ";";
      text += it->second;
    }
    lines.push_back({std::move(text), count});
  }
  std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.count != b.count ? a.count > b.count : a.text < b.text;
  });
  std::string out;
  char hdr[160];
  std::snprintf(hdr, sizeof hdr,
                "# dnc profile  hz=%d  samples=%llu  unique_stacks=%zu  dropped=%llu\n", hz,
                static_cast<unsigned long long>(total), lines.size(),
                static_cast<unsigned long long>(dropped));
  out += hdr;
  for (const Line& l : lines) {
    out += l.text;
    out += " ";
    out += std::to_string(l.count);
    out += "\n";
  }
  return out;
}

std::uint64_t dropped_total_locked(State& s) {
  std::uint64_t d = s.dropped;
  for (const auto& ts : s.threads) d += ts->dropped.load(std::memory_order_relaxed);
  return d;
}

}  // namespace

// --- gate -------------------------------------------------------------------

bool env_enabled() noexcept { return gate.enabled(); }

int env_hz() noexcept {
  return env_enabled() ? g_env_hz.load(std::memory_order_relaxed) : kDefaultHz;
}

bool registration_wanted() noexcept { return env_enabled(); }

void refresh_from_env() noexcept { gate.refresh(); }

// --- interning --------------------------------------------------------------

const char* intern(const std::string& str) {
  static std::mutex mu;
  static std::set<std::string>* table = new std::set<std::string>;
  std::lock_guard<std::mutex> lk(mu);
  return table->insert(str).first->c_str();
}

// --- thread registration ----------------------------------------------------

ThreadRegistration::ThreadRegistration(const char* tag, int id) noexcept {
  if (!registration_wanted()) return;
  ensure_continuous();
  State& s = state();
  auto ts = std::make_shared<ThreadState>();
  ts->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  ts->pth = pthread_self();
  ts->tag = tag;
  ts->id = id;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = nullptr;
    std::size_t sz = 0;
    if (pthread_attr_getstack(&attr, &lo, &sz) == 0) {
      ts->stack_lo = reinterpret_cast<std::uintptr_t>(lo);
      ts->stack_hi = ts->stack_lo + sz;
    }
    pthread_attr_destroy(&attr);
  }
  std::lock_guard<std::mutex> lk(s.mu);
  s.threads.push_back(ts);
  state_ = ts.get();
  if (g_active.load(std::memory_order_relaxed)) arm_timer_locked(s, *ts);
}

ThreadRegistration::~ThreadRegistration() {
  if (!state_) return;
  auto* ts = static_cast<ThreadState*>(state_);
  State& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    disarm_timer_locked(*ts);
  }
  // A signal generated before timer_delete may still be pending for this
  // thread; block it so the handler cannot run during or after teardown
  // (the signal dies with the thread).
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::lock_guard<std::mutex> lk(s.mu);
  drain_thread_locked(s, *ts);
  s.dropped += ts->dropped.load(std::memory_order_relaxed);
  s.truncated += ts->truncated.load(std::memory_order_relaxed);
  for (auto it = s.threads.begin(); it != s.threads.end(); ++it) {
    if (it->get() == ts) {
      s.threads.erase(it);
      break;
    }
  }
  state_ = nullptr;
}

void ThreadRegistration::set_task(const char* interned_kind) noexcept {
  if (!state_) return;
  static_cast<ThreadState*>(state_)->task.store(interned_kind, std::memory_order_relaxed);
}

// --- session control --------------------------------------------------------

bool start(int hz) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (g_active.load(std::memory_order_relaxed)) return false;
  s.hz = hz > 0 ? std::min(hz, 10000) : env_hz();
  install_handler_locked(s);
  if (!s.handler_installed) return false;
  g_active.store(true, std::memory_order_relaxed);
  for (const auto& ts : s.threads) arm_timer_locked(s, *ts);
  return true;
}

void stop() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!g_active.load(std::memory_order_relaxed)) return;
  g_active.store(false, std::memory_order_relaxed);
  for (const auto& ts : s.threads) disarm_timer_locked(*ts);
  drain_all_locked(s);
}

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

void drain() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  drain_all_locked(s);
}

Totals totals() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  Totals t;
  t.samples = s.samples;
  t.dropped = dropped_total_locked(s);
  t.truncated = s.truncated;
  for (const auto& ts : s.threads)
    t.truncated += ts->truncated.load(std::memory_order_relaxed);
  return t;
}

std::size_t registered_threads() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.threads.size();
}

std::string folded_text() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  drain_all_locked(s);
  return render_folded(s.agg, s.hz, dropped_total_locked(s));
}

void ensure_continuous() {
  if (!env_enabled()) return;
  State& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.continuous_boot) return;
    s.continuous_boot = true;
    const char* e = env::raw("DNC_PROFILE");
    s.dump_path = expand_path_placeholders(e && *e ? e : "dnc_profile.folded", 0);
  }
  start(env_hz());
  // Background drainer: keeps long continuous runs from overflowing the
  // per-thread rings. Detached by design -- it only touches leaked state.
  std::thread([] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      if (g_active.load(std::memory_order_relaxed)) drain();
    }
  }).detach();
  std::atexit([] {
    stop();
    write_text_file(state().dump_path, folded_text());
  });
}

void reset_for_tests() {
  stop();
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.agg.clear();
  s.samples = 0;
  s.dropped = 0;
  s.truncated = 0;
  for (const auto& ts : s.threads) {
    ts->dropped.store(0, std::memory_order_relaxed);
    ts->truncated.store(0, std::memory_order_relaxed);
  }
  gate.refresh();
}

}  // namespace dnc::obs::profiler
