// Column-major dense matrix container and non-owning view.
//
// All linear algebra in this repository follows the LAPACK column-major
// convention: element (i, j) of a matrix with leading dimension ld lives at
// data[i + j*ld]. MatrixT owns 64-byte-aligned storage (cache-line aligned so
// panel tasks on distinct columns never share lines at panel boundaries);
// MatrixViewT is a cheap non-owning window used by tasks operating on panels.
// Both are templated on the element type for the precision-templated solver
// stack; the unqualified Matrix / MatrixView aliases are the historical
// double instantiations used by the public APIs. Storage comes from
// alloc_aligned (common/aligned_buffer.hpp), so a matrix of 1 MiB or more
// is a private mapping of its own.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"

namespace dnc {

using index_t = std::ptrdiff_t;

/// Non-owning column-major matrix window.
template <typename Real>
struct MatrixViewT {
  Real* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  MatrixViewT() = default;
  MatrixViewT(Real* d, index_t r, index_t c, index_t leading)
      : data(d), rows(r), cols(c), ld(leading) {
    DNC_ASSERT(leading >= r);
  }

  Real& operator()(index_t i, index_t j) const {
    DNC_ASSERT(i >= 0 && i < rows && j >= 0 && j < cols);
    return data[i + j * ld];
  }

  /// Window of columns [j0, j0+nc) and rows [i0, i0+nr).
  MatrixViewT block(index_t i0, index_t j0, index_t nr, index_t nc) const {
    DNC_ASSERT(i0 >= 0 && j0 >= 0 && i0 + nr <= rows && j0 + nc <= cols);
    return MatrixViewT(data + i0 + j0 * ld, nr, nc, ld);
  }

  Real* col(index_t j) const {
    DNC_ASSERT(j >= 0 && j < cols);
    return data + j * ld;
  }
};

/// Owning column-major matrix with cache-line aligned storage.
template <typename Real>
class MatrixT {
 public:
  MatrixT() = default;
  MatrixT(index_t rows, index_t cols) { resize(rows, cols); }

  MatrixT(const MatrixT& other) : MatrixT(other.rows_, other.cols_) {
    if (size_bytes() > 0) std::memcpy(data_, other.data_, size_bytes());
  }
  MatrixT& operator=(const MatrixT& other) {
    if (this != &other) {
      resize(other.rows_, other.cols_);
      if (size_bytes() > 0) std::memcpy(data_, other.data_, size_bytes());
    }
    return *this;
  }
  MatrixT(MatrixT&& other) noexcept { swap(other); }
  MatrixT& operator=(MatrixT&& other) noexcept {
    swap(other);
    return *this;
  }
  ~MatrixT() { free_aligned(data_, size_bytes()); }

  void resize(index_t rows, index_t cols) {
    DNC_REQUIRE(rows >= 0 && cols >= 0, "Matrix dimensions must be non-negative");
    if (rows == rows_ && cols == cols_) return;
    free_aligned(data_, size_bytes());
    data_ = nullptr;
    rows_ = 0;
    cols_ = 0;
    const std::size_t bytes = static_cast<std::size_t>(rows) * cols * sizeof(Real);
    if (bytes > 0) data_ = static_cast<Real*>(alloc_aligned(bytes));
    rows_ = rows;
    cols_ = cols;
  }

  void fill(Real value) {
    for (index_t k = 0; k < rows_ * cols_; ++k) data_[k] = value;
  }

  void swap(MatrixT& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(rows_, other.rows_);
    std::swap(cols_, other.cols_);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return rows_; }
  Real* data() { return data_; }
  const Real* data() const { return data_; }
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(rows_) * cols_ * sizeof(Real);
  }

  Real& operator()(index_t i, index_t j) {
    DNC_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * rows_];
  }
  Real operator()(index_t i, index_t j) const {
    DNC_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[i + j * rows_];
  }

  MatrixViewT<Real> view() { return MatrixViewT<Real>(data_, rows_, cols_, rows_); }
  MatrixViewT<Real> block(index_t i0, index_t j0, index_t nr, index_t nc) {
    return view().block(i0, j0, nr, nc);
  }

 private:
  Real* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
};

using MatrixView = MatrixViewT<double>;
using Matrix = MatrixT<double>;

}  // namespace dnc
