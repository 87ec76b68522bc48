#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace safenn::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  debug_assert_aligned(data_.data());
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    require(r.size() == cols_, "Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
  debug_assert_aligned(data_.data());
}

double& Matrix::at(std::size_t r, std::size_t c) {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return data_[r * cols_ + c];
}

Vector Matrix::matvec(const Vector& x) const {
  require(x.size() == cols_, "Matrix::matvec: dimension mismatch");
  Vector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector Matrix::matvec_transposed(const Vector& x) const {
  require(x.size() == rows_, "Matrix::matvec_transposed: dimension mismatch");
  Vector y(cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double xr = x[r];
    // The zero-skip stays in this kernel alone: x is a backprop delta,
    // which behind a ReLU layer is ~half zeros, and skipping a whole row
    // wins there (BM_MatvecTransposed in bench_micro measures this).
    // Adding 0.0 * row[c] is exact, so skipping never changes the result
    // for finite inputs.
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * xr;
  }
  return y;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  debug_assert_aligned(data_.data());
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  return gemm(*this, rhs);
}

Matrix Matrix::gemm(const Matrix& a, const Matrix& b) {
  Matrix out;
  gemm_into(a, b, out);
  return out;
}

void Matrix::gemm_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require(a.cols_ == b.rows_, "Matrix::gemm: dimension mismatch");
  out.resize(a.rows_, b.cols_);
  out.fill(0.0);
  kernels::accumulate_nn(out.data(), a.data(), b.data(), a.rows_, a.cols_,
                         b.cols_);
}

void Matrix::gemm_nt_into(const Matrix& a, const Matrix& b, Matrix& out,
                          KernelBackend backend) {
  require(a.cols_ == b.cols_, "Matrix::gemm_nt: dimension mismatch");
  // kQuantized selects the integer engine (linalg/qmatrix.hpp); letting it
  // silently run a float kernel would serve arithmetic nobody verified.
  require(backend != KernelBackend::kQuantized,
          "Matrix::gemm_nt: kQuantized is not a float GEMM backend");
  out.resize(a.rows_, b.rows_);
  out.fill(0.0);
  kernels::accumulate_nt(out.data(), a.data(), b.data(), 1.0, a.rows_,
                         a.cols_, b.rows_);
}

Matrix& Matrix::add_gemm_nt(double s, const Matrix& a, const Matrix& b) {
  require(a.cols_ == b.cols_, "Matrix::add_gemm_nt: inner dimension mismatch");
  require(rows_ == a.rows_ && cols_ == b.rows_,
          "Matrix::add_gemm_nt: output shape mismatch");
  kernels::accumulate_nt(data(), a.data(), b.data(), s, a.rows_, a.cols_,
                         b.rows_);
  return *this;
}

Matrix& Matrix::add_gemm_tn(double s, const Matrix& a, const Matrix& b) {
  require(a.rows_ == b.rows_, "Matrix::add_gemm_tn: inner dimension mismatch");
  require(rows_ == a.cols_ && cols_ == b.cols_,
          "Matrix::add_gemm_tn: output shape mismatch");
  kernels::accumulate_tn(data(), a.data(), b.data(), s, a.rows_, a.cols_,
                         b.cols_);
  return *this;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::add_scaled(double s, const Matrix& rhs) {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_,
          "Matrix::add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * rhs.data_[i];
  return *this;
}

Matrix& Matrix::add_outer(double s, const Vector& a, const Vector& b) {
  require(a.size() == rows_ && b.size() == cols_,
          "Matrix::add_outer: shape mismatch");
  // No zero-skip here: the operands are dense in practice and the branch
  // defeats vectorization of the row update.
  for (std::size_t r = 0; r < rows_; ++r) {
    const double sa = s * a[r];
    double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) row[c] += sa * b[c];
  }
  return *this;
}

Vector Matrix::row(std::size_t r) const {
  require(r < rows_, "Matrix::row: index out of range");
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  require(c < cols_, "Matrix::col: index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double Matrix::norm_inf() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (std::abs(a(r, c) - b(r, c)) > tol) return false;
  return true;
}

}  // namespace safenn::linalg
