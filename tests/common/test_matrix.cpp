#include "common/matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace dnc {
namespace {

TEST(Matrix, DefaultEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.data(), nullptr);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(3, 2);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(2, 0) = 3;
  m(0, 1) = 4;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
  EXPECT_EQ(m.data()[3], 4);
}

TEST(Matrix, AlignedTo64) {
  Matrix m(17, 13);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
}

TEST(Matrix, CopySemantics) {
  Matrix a(2, 2);
  a.fill(3.5);
  Matrix b = a;
  b(0, 0) = -1.0;
  EXPECT_EQ(a(0, 0), 3.5);
  EXPECT_EQ(b(0, 0), -1.0);
  EXPECT_EQ(b(1, 1), 3.5);
}

TEST(Matrix, MoveSemantics) {
  Matrix a(4, 4);
  a.fill(2.0);
  const double* p = a.data();
  Matrix b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b(3, 3), 2.0);
}

TEST(Matrix, ViewBlock) {
  Matrix m(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) m(i, j) = static_cast<double>(10 * i + j);
  MatrixView b = m.block(1, 2, 2, 2);
  EXPECT_EQ(b.rows, 2);
  EXPECT_EQ(b.cols, 2);
  EXPECT_EQ(b(0, 0), 12.0);
  EXPECT_EQ(b(1, 1), 23.0);
  b(0, 0) = -5;
  EXPECT_EQ(m(1, 2), -5.0);
}

TEST(Matrix, ViewColPointer) {
  Matrix m(3, 3);
  m(0, 2) = 9.0;
  EXPECT_EQ(m.view().col(2)[0], 9.0);
}

TEST(Matrix, ResizeReallocates) {
  Matrix m(2, 2);
  m.fill(1.0);
  m.resize(5, 3);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.cols(), 3);
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(Matrix(-1, 2), InvalidArgument);
}

// Shapes on both sides of the 1 MiB line where storage switches from the
// heap to a private mapping (2^17 doubles exactly is mapped).
constexpr index_t kMapCols = static_cast<index_t>(kMapBytes / sizeof(double)) / 256;
static_assert(kMapCols * 256 * sizeof(double) == kMapBytes);

bool aligned64(const void* p) { return reinterpret_cast<std::uintptr_t>(p) % 64 == 0; }

void fill_pattern(Matrix& m) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) m(i, j) = static_cast<double>(i + 1000 * j);
}

bool has_pattern(const Matrix& m) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i)
      if (m(i, j) != static_cast<double>(i + 1000 * j)) return false;
  return true;
}

TEST(Matrix, AlignedTo64AcrossTheMapLine) {
  for (index_t cols : {kMapCols - 1, kMapCols, kMapCols + 1, 4 * kMapCols + 3}) {
    Matrix m(256, cols);
    EXPECT_TRUE(aligned64(m.data())) << "cols " << cols;
    MatrixT<float> f(256, cols);
    EXPECT_TRUE(aligned64(f.data())) << "float cols " << cols;
  }
}

TEST(Matrix, CopyMoveSwapAcrossTheMapLine) {
  Matrix small(256, kMapCols - 1), big(256, kMapCols + 1);
  fill_pattern(small);
  fill_pattern(big);

  Matrix small_copy = small, big_copy = big;
  EXPECT_TRUE(has_pattern(small_copy));
  EXPECT_TRUE(has_pattern(big_copy));
  // Copy-assignment in both directions across the line.
  Matrix a = small;
  a = big;
  EXPECT_EQ(a.cols(), kMapCols + 1);
  EXPECT_TRUE(has_pattern(a));
  a = small;
  EXPECT_EQ(a.cols(), kMapCols - 1);
  EXPECT_TRUE(has_pattern(a));

  // Move keeps the storage; the source is left empty or with the target's.
  const double* pbig = big_copy.data();
  Matrix moved = std::move(big_copy);
  EXPECT_EQ(moved.data(), pbig);
  EXPECT_TRUE(has_pattern(moved));
  Matrix target = small_copy;
  target = std::move(moved);
  EXPECT_EQ(target.data(), pbig);
  EXPECT_TRUE(has_pattern(target));

  // Swap exchanges a heap block with a mapping; each is freed by its new
  // owner according to its own size.
  Matrix s1 = small, b1 = big;
  const double* ps = s1.data();
  const double* pb = b1.data();
  s1.swap(b1);
  EXPECT_EQ(s1.data(), pb);
  EXPECT_EQ(b1.data(), ps);
  EXPECT_EQ(s1.cols(), kMapCols + 1);
  EXPECT_EQ(b1.cols(), kMapCols - 1);
  EXPECT_TRUE(has_pattern(s1));
  EXPECT_TRUE(has_pattern(b1));
}

TEST(Matrix, ResizeUpAndDownAcrossTheMapLine) {
  Matrix m(256, kMapCols - 1);
  for (index_t cols : {kMapCols, kMapCols - 1, 3 * kMapCols, index_t{1}, kMapCols, index_t{0},
                       kMapCols + 7}) {
    m.resize(256, cols);
    ASSERT_EQ(m.cols(), cols);
    if (cols == 0) {
      EXPECT_EQ(m.data(), nullptr);
      continue;
    }
    EXPECT_TRUE(aligned64(m.data())) << "cols " << cols;
    fill_pattern(m);  // every byte of the new storage is writable
    EXPECT_TRUE(has_pattern(m));
  }
  // Same byte size, other shape: still a valid mapping.
  m.resize(2 * 256, (kMapCols + 7) / 2);
  fill_pattern(m);
  EXPECT_TRUE(has_pattern(m));
}

// Resident set size of this process in bytes, from /proc/self/status (0 when
// unavailable).
std::size_t vm_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmRSS:", 6) == 0) kb = std::strtoull(line + 6, nullptr, 10);
  std::fclose(f);
  return kb * 1024;
}

TEST(Matrix, FreeingAMappedMatrixReturnsItsPages) {
  if (vm_rss_bytes() == 0) GTEST_SKIP() << "VmRSS unavailable";
  constexpr std::size_t kBytes = 64u << 20;
  const std::size_t before = vm_rss_bytes();
  std::size_t during = 0;
  {
    Matrix m(1024, static_cast<index_t>(kBytes / (1024 * sizeof(double))));
    m.fill(1.0);  // fault every page in
    during = vm_rss_bytes();
    EXPECT_GE(during, before + kBytes * 9 / 10);
  }
  const std::size_t after = vm_rss_bytes();
  // The mapping goes back to the kernel at once: RSS falls by about the
  // matrix, not merely into a free list of the C heap.
  EXPECT_LE(after + kBytes * 9 / 10, during);
}

}  // namespace
}  // namespace dnc
