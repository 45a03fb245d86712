#include "obs/counters.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

namespace dnc::obs {
namespace {

struct Block {
  std::atomic<std::uint64_t> v[kNumCounters] = {};
};

// Every thread's block, registered once on the thread's first bump. The
// registry owns the blocks (a deque never moves its elements), so what an
// exited runtime worker counted is still summed; it is leaked so at-exit
// exporters can still read it. A thread that exits puts its block on the
// free list, and the next thread to attach continues counting in it: the
// sums stay exact without zeroing, and the registry holds no more blocks
// than the most threads that were ever counting at once.
struct Registry {
  std::mutex mu;
  std::deque<Block> blocks;  // under mu
  std::vector<Block*> free;  // under mu
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local Block* tl_block = nullptr;

// Returns the thread's block to the free list when the thread exits. A bump
// from a later thread-exit destructor attaches a block again, which then
// stays registered.
struct Detach {
  ~Detach() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    if (tl_block) r.free.push_back(tl_block);
    tl_block = nullptr;
  }
};

// Out of line, so the hot local() stays a TLS load and a branch; only this
// first bump of a thread registers the exit hook.
[[gnu::noinline]] Block& attach() {
  static thread_local Detach detach;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.free.empty()) {
    tl_block = &r.blocks.emplace_back();
  } else {
    tl_block = r.free.back();
    r.free.pop_back();
  }
  return *tl_block;
}

inline Block& local() noexcept { return tl_block ? *tl_block : attach(); }

// Single-writer relaxed update: cheaper than fetch_add and exactly as
// correct, since only the owning thread writes its block.
inline void add(Block& b, int c, std::uint64_t delta) noexcept {
  b.v[c].store(b.v[c].load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace

const char* counter_name(int c) noexcept {
  switch (c) {
    case kLaed4Calls: return "laed4_calls";
    case kLaed4Iterations: return "laed4_iterations";
    case kLaed4Hist0: return "laed4_hist_0";
    case kLaed4Hist1: return "laed4_hist_1";
    case kLaed4Hist2: return "laed4_hist_2";
    case kLaed4Hist3: return "laed4_hist_3";
    case kLaed4Hist4: return "laed4_hist_4";
    case kLaed4Hist5to6: return "laed4_hist_5_6";
    case kLaed4Hist7to9: return "laed4_hist_7_9";
    case kLaed4Hist10plus: return "laed4_hist_10_plus";
    case kSturmCalls: return "sturm_calls";
    case kSturmSteps: return "sturm_steps";
    case kBisectLdlCalls: return "bisect_ldl_calls";
    case kBisectLdlSteps: return "bisect_ldl_steps";
    case kGemmCalls: return "gemm_calls";
    case kGemmFlops: return "gemm_flops";
    case kGemmPackedBytes: return "gemm_packed_bytes";
  }
  return "unknown";
}

void bump(Counter c, std::uint64_t delta) noexcept { add(local(), c, delta); }

void bump_laed4(int iterations) noexcept {
  Block& b = local();
  add(b, kLaed4Calls, 1);
  add(b, kLaed4Iterations, static_cast<std::uint64_t>(iterations < 0 ? 0 : iterations));
  int bucket;
  if (iterations <= 0)
    bucket = 0;
  else if (iterations <= 4)
    bucket = iterations;
  else if (iterations <= 6)
    bucket = 5;
  else if (iterations <= 9)
    bucket = 6;
  else
    bucket = 7;
  add(b, kLaed4HistFirst + bucket, 1);
}

CounterArray snapshot() noexcept {
  CounterArray out{};
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const Block& b : r.blocks)
    for (int c = 0; c < kNumCounters; ++c) out[c] += b.v[c].load(std::memory_order_relaxed);
  return out;
}

std::size_t counter_blocks() noexcept {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.blocks.size();
}

CounterArray delta_since(const CounterArray& begin) noexcept {
  CounterArray now = snapshot();
  for (int c = 0; c < kNumCounters; ++c) now[c] = now[c] >= begin[c] ? now[c] - begin[c] : 0;
  return now;
}

}  // namespace dnc::obs
