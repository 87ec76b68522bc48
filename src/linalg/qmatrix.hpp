// Packed fixed-point matrices + the batched integer GEMM family.
//
// The quantized inference engine (nn/qengine.hpp) serves the exact
// integer semantics the SMT stack verifies. Integer addition is
// associative, so every backend — scalar reference, AVX2, AVX-512, NEON
// — produces BITWISE IDENTICAL accumulators whatever order it sums in
// (the float kernels get the same guarantee only by keeping the scalar
// order; linalg/kernels.hpp). The equivalence
// harness below asserts max |diff| == 0 and any nonzero difference is a
// kernel bug, never rounding.
//
// Layout: row-major with the row stride padded up to kQuantPad elements
// and the padding ZEROED. Padded zeros multiply to zero and add nothing,
// so SIMD kernels iterate whole padded rows with no remainder loop and
// exactness is preserved by construction.
//
// Number format (matches nn/quantize.hpp): weights are int16 in
// frac_bits format, activations are int32 in frac_bits format, and the
// accumulator C[i][j] = sum_p X[i][p] * W[j][p] is int64 in 2*frac_bits
// format. Overflow is excluded AT PACK TIME (nn/qengine.hpp propagates
// worst-case magnitude bounds and refuses with a typed error), so the
// kernels themselves are branch-free and UB-free on admitted inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/aligned.hpp"
#include "linalg/kernels.hpp"

namespace safenn::linalg {

/// Row stride granularity of the packed integer matrices: 16 elements
/// (32 B of int16, 64 B of int32) — one full AVX-512 lane group of
/// int32, two AVX2 groups. Kernels may read whole groups; the padding
/// is zeroed so the extra lanes contribute nothing.
inline constexpr std::size_t kQuantPad = 16;

inline constexpr std::size_t quant_stride(std::size_t cols) {
  return cols == 0 ? 0 : (cols + kQuantPad - 1) / kQuantPad * kQuantPad;
}

namespace detail {

/// Shared shell of the packed integer matrices: row-major `rows` x
/// `cols` with the stride padded to kQuantPad and the padding zeroed.
template <class T>
class PackedIntMatrix {
 public:
  PackedIntMatrix() = default;
  PackedIntMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), stride_(quant_stride(cols)),
        data_(rows * quant_stride(cols), T{0}) {
    debug_assert_aligned(data_.data());
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Padded row stride in elements (>= cols, multiple of kQuantPad).
  std::size_t stride() const { return stride_; }

  T* row(std::size_t r) { return data_.data() + r * stride_; }
  const T* row(std::size_t r) const { return data_.data() + r * stride_; }

  T& operator()(std::size_t r, std::size_t c) {
    return data_[r * stride_ + c];
  }
  T operator()(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + c];
  }

  /// Reshapes reusing the allocation where possible; every element
  /// (including the padding) is re-zeroed — callers overwrite the
  /// payload and rely on the padding staying zero.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = quant_stride(cols);
    data_.assign(rows * stride_, T{0});
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  aligned_vector<T> data_;
};

}  // namespace detail

/// Packed int16 matrix — the quantized weight storage (frac_bits format).
using Int16Matrix = detail::PackedIntMatrix<std::int16_t>;

/// Packed int32 matrix — quantized activations, one sample per row.
using Int32Matrix = detail::PackedIntMatrix<std::int32_t>;

namespace qkernels {

/// c (m x n int64, dense row-major, caller-initialized e.g. with biases)
/// += x (m x k int32 packed) * w^T with w (n x k int16 packed).
/// Every backend is bitwise identical (exact integer arithmetic); the
/// caller guarantees no int64 overflow (pack-time bound analysis).
/// kReference runs the scalar reference; kQuantized the ISA dispatch.
void qgemm_nt(std::int64_t* c, const Int32Matrix& x, const Int16Matrix& w,
              KernelBackend backend);

/// The scalar reference kernel (exposed for the harness and tests).
void qgemm_nt_reference(std::int64_t* c, const Int32Matrix& x,
                        const Int16Matrix& w);

}  // namespace qkernels

// ---------------------------------------------------------------------
// Bitwise kernel-equivalence harness: integer kernels must agree to the
// last bit on every shape, or the backend is broken.
// ---------------------------------------------------------------------

struct QuantShape {
  std::size_t m = 0, k = 0, n = 0;
};

struct QuantKernelCheck {
  std::size_t m = 0, k = 0, n = 0;
  std::uint64_t max_abs_diff = 0;  // must be 0
  bool pass = false;
};

struct QuantKernelVerifyConfig {
  std::uint64_t seed = 20260808;
  std::size_t random_trials = 16;
  std::size_t max_dim = 48;
  /// Extra shapes to pin, e.g. the serving engine's (batch, in, out)
  /// per layer so the deployed configuration is exactly what is checked.
  std::vector<QuantShape> extra_shapes;
};

struct QuantKernelReport {
  SimdIsa isa = SimdIsa::kPortable;
  std::vector<QuantKernelCheck> checks;
  std::uint64_t worst_abs_diff = 0;
  bool pass = true;

  std::string summary() const;
};

/// Sweeps the integer GEMM over fixed awkward shapes (empty, 1x1,
/// remainder lanes, odd k) + randomized + configured shapes with
/// full-range int16 weights and large-magnitude int32 activations, and
/// requires the SIMD dispatch to be BITWISE equal to the scalar
/// reference on every one.
QuantKernelReport verify_quantized_kernels(
    const QuantKernelVerifyConfig& config = {});

}  // namespace safenn::linalg
