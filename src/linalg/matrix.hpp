// Dense row-major double matrix.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "linalg/aligned.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector.hpp"

namespace safenn::linalg {

/// Dense row-major matrix with the operations needed by layers (matvec,
/// outer product, transpose-matvec), by the simplex tableau, and by the
/// batched inference/training path (the GEMM family below, with the
/// batch-as-rows convention: one sample per row).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Row-by-row construction, e.g. Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of stored entries (rows * cols).
  std::size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Reshapes to rows x cols reusing the existing allocation where
  /// possible (scratch-buffer reuse on hot paths). Contents are
  /// unspecified after a shape change.
  void resize(std::size_t rows, std::size_t cols);

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = A x.
  Vector matvec(const Vector& x) const;
  /// y = A^T x.
  Vector matvec_transposed(const Vector& x) const;

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;

  /// C = A B, cache-blocked; each output entry accumulates over k in
  /// ascending order and rounds exactly like the matvec path (see
  /// kernels.hpp for the arithmetic every GEMM below shares).
  static Matrix gemm(const Matrix& a, const Matrix& b);
  /// out = A B without reallocating when `out` already has the shape.
  static void gemm_into(const Matrix& a, const Matrix& b, Matrix& out);
  /// out = A B^T (both operands traversed along contiguous rows; the
  /// batched layer forward, with B = the out x in weight matrix). Throws
  /// on kQuantized, which is not a float arithmetic.
  static void gemm_nt_into(const Matrix& a, const Matrix& b, Matrix& out,
                           KernelBackend backend = KernelBackend::kReference);

  /// this += s * A B^T.
  Matrix& add_gemm_nt(double s, const Matrix& a, const Matrix& b);
  /// this += s * A^T B (a (rows-of-A)-long sequence of rank-1 updates in
  /// ascending row order — the batched gradient accumulation, matching
  /// per-sample add_outer order).
  Matrix& add_gemm_tn(double s, const Matrix& a, const Matrix& b);

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator*=(double s);
  /// this += s * rhs.
  Matrix& add_scaled(double s, const Matrix& rhs);

  /// this += s * a b^T (rank-1 update used by backprop).
  Matrix& add_outer(double s, const Vector& a, const Vector& b);

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;

  void fill(double value);
  static Matrix identity(std::size_t n);

  double norm_inf() const;  ///< Max absolute entry.

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  aligned_vector<double> data_;  // 64-byte aligned for the vector kernels
};

bool approx_equal(const Matrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace safenn::linalg
