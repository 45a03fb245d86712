// One block per thread, summed by readers: the registry behind both the
// algorithmic counters (obs/counters) and the metrics shards.
//
// A thread's Block is allocated on its first local() and registered once
// under the registry mutex. The registry keeps a shared_ptr to every block,
// so what a runtime worker wrote is still summed after the worker exits.
// Only the owning thread writes its block (relaxed single-writer stores, no
// read-modify-write); readers visit the blocks under the mutex. The
// registry is leaked so at-exit exporters can still read it. One registry
// exists per Block type.
//
// kResettable adds clear() for tests; it costs local() an acquire load of
// the registry generation, which the counters' hot path does not pay.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace dnc::obs {

template <class Block, bool kResettable = false>
class ThreadBlocks {
 public:
  /// The calling thread's block.
  static Block& local() {
    thread_local Ref ref;
    if constexpr (kResettable) {
      if (ref.block && ref.gen == registry().gen.load(std::memory_order_acquire))
        return *ref.block;
    } else {
      if (ref.block) return *ref.block;
    }
    return attach(ref);
  }

  /// Calls f(const Block&) for every registered block, under the mutex.
  template <class F>
  static void for_each(F&& f) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& b : r.blocks) f(static_cast<const Block&>(*b));
  }

  /// Blocks registered since the start or the last clear().
  static std::size_t size() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.blocks.size();
  }

  /// Drops every block; each thread gets a fresh one on its next local().
  /// Writers must be quiesced by the caller.
  static void clear()
    requires kResettable
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.blocks.clear();
    r.gen.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  struct Ref {
    std::shared_ptr<Block> block;
    std::uint64_t gen = 0;
  };
  struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<Block>> blocks;  // under mu
    std::atomic<std::uint64_t> gen{0};
  };

  // Out of line, so the hot local() stays a TLS load and a branch.
  [[gnu::noinline]] static Block& attach(Ref& ref) {
    auto block = std::make_shared<Block>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.blocks.push_back(block);
    ref.gen = r.gen.load(std::memory_order_relaxed);
    ref.block = std::move(block);
    return *ref.block;
  }

  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }
};

}  // namespace dnc::obs
