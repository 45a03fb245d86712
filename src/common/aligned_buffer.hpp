// Cache-line-aligned storage: the one allocation rule for large scratch,
// and the grow-only buffer built on it.
//
// The packed-GEMM workspaces (and any other per-thread kernel scratch) need
// 64-byte alignment for vector loads and must not pay a malloc per call: a
// merge tree issues thousands of small panel GEMMs, and the seed profile
// showed the per-call std::vector allocations in blas::gemm on the hot
// path. Instances are meant to be `thread_local`, so each worker of the
// fork/join pool reuses one arena across every task it runs.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

#include <sys/mman.h>

#include "common/error.hpp"

namespace dnc {

/// Storage of at least this many bytes is a private anonymous mapping of
/// its own (page aligned, returned to the kernel when freed). Such a block
/// -- an n x n matrix, a panel copy -- therefore never lands in the C heap
/// below its dynamic mmap threshold, where whether freed pages are reused
/// would depend on the order of earlier allocations, and so would the
/// process's peak RSS. Smaller storage comes from aligned_alloc.
inline constexpr std::size_t kMapBytes = std::size_t{1} << 20;

/// 64-byte-aligned storage of `bytes` > 0 bytes; throws std::bad_alloc.
/// Release it with free_aligned and the same byte count: the size alone
/// decides mapping vs heap, so no flag travels with the pointer.
inline void* alloc_aligned(std::size_t bytes) {
  if (bytes >= kMapBytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
  // Round up to a multiple of the alignment as required by aligned_alloc.
  void* p = std::aligned_alloc(64, (bytes + 63) & ~std::size_t{63});
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void free_aligned(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes >= kMapBytes)
    munmap(p, bytes);
  else
    std::free(p);
}

class AlignedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  ~AlignedBuffer() { free_aligned(data_, capacity_bytes_); }

  /// Returns a 64-byte-aligned array of at least `n` elements of T (double
  /// by default; the precision-templated GEMM passes its Real). Contents
  /// are unspecified; previous pointers are invalidated when the buffer
  /// grows. Capacity is tracked in bytes so one arena serves both widths.
  template <typename T = double>
  T* reserve(std::size_t n) {
    const std::size_t need = n * sizeof(T);
    if (need > capacity_bytes_) {
      // Grow geometrically so alternating callers with slightly different
      // panel shapes do not reallocate on every call.
      std::size_t want = capacity_bytes_ + capacity_bytes_ / 2;
      if (want < need) want = need;
      free_aligned(data_, capacity_bytes_);
      data_ = nullptr;
      capacity_bytes_ = 0;
      data_ = alloc_aligned(want);
      capacity_bytes_ = want;
    }
    return static_cast<T*>(data_);
  }

  /// Capacity in doubles (historical unit, kept for the existing tests).
  std::size_t capacity() const { return capacity_bytes_ / sizeof(double); }

 private:
  void* data_ = nullptr;
  std::size_t capacity_bytes_ = 0;
};

}  // namespace dnc
