#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/aligned.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qmatrix.hpp"
#include "linalg/vector.hpp"

namespace safenn::linalg {
namespace {

TEST(Vector, ConstructionAndAccess) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  v[1] = -2.0;
  EXPECT_DOUBLE_EQ(v[1], -2.0);
}

TEST(Vector, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(Vector, OutOfRangeThrows) {
  Vector v(2);
  EXPECT_THROW(v[2], Error);
  const Vector& cv = v;
  EXPECT_THROW(cv[5], Error);
  // The check builds its message only when it fails; the text is the
  // same as ever.
  for (bool read_only : {false, true}) {
    try {
      if (read_only) {
        (void)cv[2];
      } else {
        v[2] = 1.0;
      }
      ADD_FAILURE() << "no throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "Vector: index out of range");
    }
  }
}

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  EXPECT_TRUE(approx_equal(a + b, Vector{4.0, 1.0}));
  EXPECT_TRUE(approx_equal(a - b, Vector{-2.0, 3.0}));
  EXPECT_TRUE(approx_equal(2.0 * a, Vector{2.0, 4.0}));
  EXPECT_TRUE(approx_equal(a * 0.5, Vector{0.5, 1.0}));
}

TEST(Vector, SizeMismatchThrows) {
  Vector a(2), b(3);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a.dot(b), Error);
  EXPECT_THROW(hadamard(a, b), Error);
}

TEST(Vector, DotAndNorms) {
  Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 4.0);
  Vector b{-7.0, 2.0};
  EXPECT_DOUBLE_EQ(b.norm_inf(), 7.0);
}

TEST(Vector, AddScaled) {
  Vector a{1.0, 1.0};
  Vector b{2.0, -2.0};
  a.add_scaled(0.5, b);
  EXPECT_TRUE(approx_equal(a, Vector{2.0, 0.0}));
}

TEST(Vector, Reductions) {
  Vector v{-1.0, 5.0, 2.0};
  EXPECT_DOUBLE_EQ(v.sum(), 6.0);
  EXPECT_DOUBLE_EQ(v.max(), 5.0);
  EXPECT_DOUBLE_EQ(v.min(), -1.0);
  EXPECT_EQ(v.argmax(), 1u);
}

TEST(Vector, EmptyReductionsThrow) {
  Vector v;
  EXPECT_THROW(v.max(), Error);
  EXPECT_THROW(v.min(), Error);
  EXPECT_THROW(v.argmax(), Error);
}

TEST(Vector, Hadamard) {
  Vector a{2.0, 3.0};
  Vector b{4.0, -1.0};
  EXPECT_TRUE(approx_equal(hadamard(a, b), Vector{8.0, -3.0}));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.5);
  m.at(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(Matrix, InitializerListAndRagged) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(Matrix, Matvec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Vector x{1.0, -1.0};
  EXPECT_TRUE(approx_equal(m.matvec(x), Vector{-1.0, -1.0, -1.0}));
  EXPECT_THROW(m.matvec(Vector(3)), Error);
}

TEST(Matrix, MatvecTransposed) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Vector y{1.0, 0.0, -1.0};
  // m^T y = [1-5, 2-6] = [-4, -4]
  EXPECT_TRUE(approx_equal(m.matvec_transposed(y), Vector{-4.0, -4.0}));
}

TEST(Matrix, TransposedConsistentWithMatvec) {
  Rng rng(3);
  Matrix m(4, 6);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) m(r, c) = rng.normal();
  Vector y(4);
  for (std::size_t i = 0; i < 4; ++i) y[i] = rng.normal();
  EXPECT_TRUE(
      approx_equal(m.matvec_transposed(y), m.transposed().matvec(y), 1e-12));
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  Matrix c = a * b;
  EXPECT_TRUE(approx_equal(c, Matrix{{2.0, 1.0}, {4.0, 3.0}}));
}

TEST(Matrix, IdentityIsNeutral) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(approx_equal(a * Matrix::identity(2), a));
  EXPECT_TRUE(approx_equal(Matrix::identity(2) * a, a));
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2);
  m.add_outer(2.0, Vector{1.0, 0.0}, Vector{3.0, 4.0});
  EXPECT_TRUE(approx_equal(m, Matrix{{6.0, 8.0}, {0.0, 0.0}}));
}

TEST(Matrix, AddScaledAndScale) {
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  Matrix b{{1.0, 2.0}, {3.0, 4.0}};
  a.add_scaled(2.0, b);
  EXPECT_TRUE(approx_equal(a, Matrix{{3.0, 5.0}, {7.0, 9.0}}));
  a *= 0.0;
  EXPECT_DOUBLE_EQ(a.norm_inf(), 0.0);
}

TEST(Matrix, RowColExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_TRUE(approx_equal(m.row(1), Vector{3.0, 4.0}));
  EXPECT_TRUE(approx_equal(m.col(0), Vector{1.0, 3.0}));
  EXPECT_THROW(m.row(2), Error);
  EXPECT_THROW(m.col(2), Error);
}

namespace {

Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Reference GEMM: naive triple loop, ascending k — the rounding the
/// blocked kernels promise to reproduce exactly.
Matrix naive_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

}  // namespace

TEST(Matrix, Resize) {
  Matrix m(2, 3, 1.0);
  m.resize(5, 4);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 20u);
  m.fill(2.0);
  EXPECT_DOUBLE_EQ(m(4, 3), 2.0);
  m.resize(1, 2);  // shrink keeps a valid dense layout
  EXPECT_EQ(m.size(), 2u);
}

TEST(Matrix, GemmMatchesNaiveTripleLoop) {
  // Shapes straddling the kKc=64 K-panel boundary and the kJr=4 register
  // tile: bitwise equality against the naive ascending-k reference.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 2},   {7, 63, 9},
                                   {4, 64, 4},  {5, 65, 6},  {2, 130, 3},
                                   {33, 84, 15}};
  Rng rng(17);
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(rng, s[0], s[1]);
    const Matrix b = random_matrix(rng, s[1], s[2]);
    const Matrix expected = naive_product(a, b);
    const Matrix got = Matrix::gemm(a, b);
    ASSERT_EQ(got.rows(), expected.rows());
    ASSERT_EQ(got.cols(), expected.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], expected.data()[i])
          << "entry " << i << " of " << s[0] << "x" << s[1] << "*" << s[1]
          << "x" << s[2];
    }
    // operator* routes through the same kernel.
    const Matrix via_op = a * b;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(via_op.data()[i], expected.data()[i]);
    }
  }
}

TEST(Matrix, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(Matrix::gemm(a, b), Error);
}

TEST(Matrix, AddGemmNtMatchesMatvecBitwise) {
  // Row i of A * W^T must equal W.matvec(row i) bit for bit — this is
  // the contract that makes batched forward reproduce per-sample
  // forward exactly.
  Rng rng(19);
  const std::size_t shapes[][3] = {{1, 84, 32}, {7, 65, 5}, {32, 84, 15},
                                   {6, 128, 31}};
  for (const auto& s : shapes) {
    const std::size_t batch = s[0], in = s[1], out = s[2];
    const Matrix x = random_matrix(rng, batch, in);
    const Matrix w = random_matrix(rng, out, in);
    Matrix y(batch, out);
    y.add_gemm_nt(1.0, x, w);
    for (std::size_t r = 0; r < batch; ++r) {
      const Vector yr = w.matvec(x.row(r));
      for (std::size_t c = 0; c < out; ++c) {
        ASSERT_EQ(y(r, c), yr[c]) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(Matrix, AddGemmNtAccumulatesScaled) {
  Rng rng(23);
  const Matrix a = random_matrix(rng, 3, 70);
  const Matrix b = random_matrix(rng, 5, 70);
  Matrix c(3, 5, 1.0);
  c.add_gemm_nt(-2.0, a, b);
  const Matrix ref = naive_product(a, b.transposed());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(c(i, j), 1.0 - 2.0 * ref(i, j), 1e-12);
    }
  }
  EXPECT_THROW(c.add_gemm_nt(1.0, a, random_matrix(rng, 5, 71)), Error);
}

TEST(Matrix, AddGemmTnMatchesOuterSumBitwise) {
  // C += s * A^T B must reproduce the per-sample rank-1 accumulation
  // (add_outer per row, ascending) bit for bit — the contract behind
  // batched weight gradients.
  Rng rng(29);
  const std::size_t shapes[][3] = {{1, 4, 6}, {7, 15, 32}, {64, 9, 5},
                                   {65, 3, 3}};
  for (const auto& s : shapes) {
    const std::size_t batch = s[0], m = s[1], n = s[2];
    const Matrix a = random_matrix(rng, batch, m);
    const Matrix b = random_matrix(rng, batch, n);
    Matrix got(m, n);
    got.add_gemm_tn(0.5, a, b);
    Matrix expected(m, n);
    for (std::size_t p = 0; p < batch; ++p) {
      expected.add_outer(0.5, a.row(p), b.row(p));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], expected.data()[i]);
    }
  }
}

TEST(Matrix, GemmIntoReusesStorage) {
  Rng rng(31);
  const Matrix a = random_matrix(rng, 4, 66);
  const Matrix b = random_matrix(rng, 66, 3);
  Matrix out(1, 1, 99.0);  // wrong shape, stale contents
  Matrix::gemm_into(a, b, out);
  const Matrix expected = naive_product(a, b);
  ASSERT_EQ(out.rows(), 4u);
  ASSERT_EQ(out.cols(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]);
  }
}

// Property: (A*B)x == A*(Bx) over random matrices.
class MatmulProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatmulProperty, ProductConsistentWithComposedMatvec) {
  Rng rng(GetParam());
  const std::size_t p = 3 + rng.uniform_index(4);
  const std::size_t q = 2 + rng.uniform_index(5);
  const std::size_t r = 2 + rng.uniform_index(4);
  Matrix a(p, q), b(q, r);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < q; ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < q; ++i)
    for (std::size_t j = 0; j < r; ++j) b(i, j) = rng.normal();
  Vector x(r);
  for (std::size_t i = 0; i < r; ++i) x[i] = rng.normal();
  EXPECT_TRUE(approx_equal((a * b).matvec(x), a.matvec(b.matvec(x)), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

// --- Storage alignment -------------------------------------------------

bool is_storage_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kStorageAlignment == 0;
}

TEST(Alignment, MatrixStorageIs64ByteAligned) {
  Matrix m(3, 5, 1.0);
  EXPECT_TRUE(is_storage_aligned(m.data()));
  m.resize(17, 9);  // reallocation must preserve the guarantee
  EXPECT_TRUE(is_storage_aligned(m.data()));
  const Matrix moved = std::move(m);
  EXPECT_TRUE(is_storage_aligned(moved.data()));
}

TEST(Alignment, VectorStorageIs64ByteAligned) {
  Vector v(7, 2.0);
  EXPECT_TRUE(is_storage_aligned(v.data()));
  const Vector from_std(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(is_storage_aligned(from_std.data()));
}

// --- Kernel backend dispatch -------------------------------------------

TEST(KernelBackend, StringRoundTrip) {
  EXPECT_EQ(to_string(KernelBackend::kReference), "reference");
}

TEST(KernelBackend, ActiveIsaConsistentWithBuild) {
  const SimdIsa isa = active_simd_isa();
  if (!simd_kernels_compiled()) {
    EXPECT_EQ(isa, SimdIsa::kPortable);
  }
  EXPECT_NE(std::string(to_string(isa)), "");
  EXPECT_EQ(isa, active_simd_isa());  // cached — stable across calls
}

// --- Exact float kernels -------------------------------------------------
//
// Each kernel against a test-side scalar loop written in the kernel's own
// order, compared with memcmp: the dispatched kernel (AVX2 on hosts that
// have it, the scalar loops otherwise) must reproduce every chain to the
// bit. The dims cover empty operands, each remainder of the 4-wide
// vector and the 4-row / 16-column blocks, and more than two blocks.

const std::size_t kExactDims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
const double kExactScales[] = {1.0, -0.75};

/// Uniform draws with +0.0, -0.0 and subnormals mixed in: products of
/// two subnormals underflow to signed zeros, and +0.0 + -0.0 = +0.0
/// only when the chain adds in the right order.
Matrix exact_operand(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = rng.uniform(-2.0, 2.0);
    switch (rng.uniform_index(8)) {
      case 0: m.data()[i] = 0.0; break;
      case 1: m.data()[i] = -0.0; break;
      case 2: m.data()[i] = v * 0x1p-1060; break;  // subnormal
      default: m.data()[i] = v; break;
    }
  }
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

template <typename Fn>
void for_each_exact_shape(Fn&& fn) {
  for (const std::size_t m : kExactDims) {
    for (const std::size_t k : kExactDims) {
      for (const std::size_t n : kExactDims) fn(m, k, n);
    }
  }
}

TEST(ExactKernels, NtMatchesScalarChainBitwise) {
  Rng rng(101);
  for_each_exact_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    for (const double s : kExactScales) {
      const Matrix a = exact_operand(rng, m, k);
      const Matrix b = exact_operand(rng, n, k);
      const Matrix c0 = exact_operand(rng, m, n);
      Matrix expected = c0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double sum = 0.0;
          for (std::size_t p = 0; p < k; ++p) sum += a(i, p) * b(j, p);
          expected(i, j) += s * sum;
        }
      }
      Matrix got = c0;
      kernels::accumulate_nt(got.data(), a.data(), b.data(), s, m, k, n);
      ASSERT_TRUE(bitwise_equal(got, expected))
          << "nt " << m << "x" << k << "x" << n << " s=" << s;
    }
  });
}

TEST(ExactKernels, NnMatchesScalarChainBitwise) {
  Rng rng(103);
  for_each_exact_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    const Matrix a = exact_operand(rng, m, k);
    const Matrix b = exact_operand(rng, k, n);
    const Matrix c0 = exact_operand(rng, m, n);
    Matrix expected = c0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t p = 0; p < k; ++p) expected(i, j) += a(i, p) * b(p, j);
      }
    }
    Matrix got = c0;
    kernels::accumulate_nn(got.data(), a.data(), b.data(), m, k, n);
    ASSERT_TRUE(bitwise_equal(got, expected))
        << "nn " << m << "x" << k << "x" << n;
  });
}

TEST(ExactKernels, TnMatchesScalarChainBitwise) {
  Rng rng(107);
  for_each_exact_shape([&](std::size_t m, std::size_t k, std::size_t n) {
    for (const double s : kExactScales) {
      const Matrix a = exact_operand(rng, k, m);
      const Matrix b = exact_operand(rng, k, n);
      const Matrix c0 = exact_operand(rng, m, n);
      Matrix expected = c0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t p = 0; p < k; ++p) {
            const double sa = s * a(p, i);
            expected(i, j) += sa * b(p, j);
          }
        }
      }
      Matrix got = c0;
      kernels::accumulate_tn(got.data(), a.data(), b.data(), s, k, m, n);
      ASSERT_TRUE(bitwise_equal(got, expected))
          << "tn " << m << "x" << k << "x" << n << " s=" << s;
    }
  });
}

// --- Packed integer matrices + bitwise quantized kernels ---------------

TEST(QuantizedMatrix, PaddedStrideAndZeroedPadding) {
  EXPECT_EQ(quant_stride(0), 0u);
  EXPECT_EQ(quant_stride(1), kQuantPad);
  EXPECT_EQ(quant_stride(16), 16u);
  EXPECT_EQ(quant_stride(17), 32u);
  Int16Matrix w(3, 5);
  EXPECT_EQ(w.stride(), 16u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) w(r, c) = -1;
    for (std::size_t c = 5; c < w.stride(); ++c) {
      EXPECT_EQ(w.row(r)[c], 0) << "padding must stay zero";
    }
  }
  w.resize(2, 9);
  EXPECT_EQ(w.stride(), 16u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < w.stride(); ++c) {
      EXPECT_EQ(w.row(r)[c], 0) << "resize must re-zero";
    }
  }
}

TEST(QuantizedMatrix, StorageIs64ByteAligned) {
  Int32Matrix x(4, 11);
  EXPECT_TRUE(is_storage_aligned(x.row(0)));
}

TEST(KernelBackend, QuantizedStringRoundTrip) {
  EXPECT_EQ(to_string(KernelBackend::kQuantized), "quantized");
}

TEST(KernelBackend, QuantizedIsNotAFloatGemmBackend) {
  Rng rng(61);
  const Matrix a = random_matrix(rng, 2, 3);
  const Matrix b = random_matrix(rng, 4, 3);
  Matrix out;
  EXPECT_THROW(Matrix::gemm_nt_into(a, b, out, KernelBackend::kQuantized),
               Error);
}

// Awkward shapes for the integer kernels: empty, 1x1, remainder lanes
// (k % 8 != 0), odd k, and a j-tile remainder (n % 4 != 0).
TEST(QuantizedKernels, BitwiseEqualAtAwkwardShapes) {
  Rng rng(67);
  const std::size_t shapes[][3] = {
      {0, 0, 0}, {1, 1, 1},  {2, 3, 2},   {1, 7, 3},   {5, 2, 5},
      {4, 9, 6}, {3, 13, 7}, {6, 33, 10}, {3, 84, 15}, {32, 84, 32}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    Int32Matrix x(m, k);
    Int16Matrix w(n, k);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < k; ++p) {
        x(i, p) = static_cast<std::int32_t>(rng.uniform_index(1u << 25)) -
                  (1 << 24);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = 0; p < k; ++p) {
        w(j, p) = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_index(65536)) - 32768);
      }
    }
    std::vector<std::int64_t> c_ref(m * n, 17);
    std::vector<std::int64_t> c_quant(m * n, 17);
    qkernels::qgemm_nt_reference(c_ref.data(), x, w);
    qkernels::qgemm_nt(c_quant.data(), x, w, KernelBackend::kQuantized);
    for (std::size_t e = 0; e < c_ref.size(); ++e) {
      ASSERT_EQ(c_ref[e], c_quant[e])
          << m << "x" << k << "x" << n << " element " << e;
    }
  }
}

TEST(QuantizedKernels, ReferenceDispatchMatchesDirectReference) {
  Rng rng(71);
  Int32Matrix x(3, 10);
  Int16Matrix w(4, 10);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t p = 0; p < 10; ++p) {
      x(i, p) = static_cast<std::int32_t>(rng.uniform_index(2001)) - 1000;
    }
  }
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t p = 0; p < 10; ++p) {
      w(j, p) = static_cast<std::int16_t>(
          static_cast<int>(rng.uniform_index(201)) - 100);
    }
  }
  std::vector<std::int64_t> a(12, 0), b(12, 0);
  qkernels::qgemm_nt_reference(a.data(), x, w);
  qkernels::qgemm_nt(b.data(), x, w, KernelBackend::kReference);
  EXPECT_EQ(a, b);
}

TEST(QuantizedKernels, MismatchedContractionWidthThrows) {
  Int32Matrix x(2, 3);
  Int16Matrix w(2, 4);
  std::vector<std::int64_t> c(4, 0);
  EXPECT_THROW(qkernels::qgemm_nt(c.data(), x, w, KernelBackend::kQuantized),
               Error);
}

TEST(QuantizedKernelHarness, PassesBitwiseOnThisHost) {
  QuantKernelVerifyConfig config;
  config.extra_shapes.push_back({32, 84, 32});  // serving-layer shape
  const QuantKernelReport report = verify_quantized_kernels(config);
  EXPECT_TRUE(report.pass) << report.summary();
  EXPECT_EQ(report.worst_abs_diff, 0u);
  EXPECT_GE(report.checks.size(), 12u + 16u + 1u);
  for (const QuantKernelCheck& check : report.checks) {
    EXPECT_EQ(check.max_abs_diff, 0u)
        << check.m << "x" << check.k << "x" << check.n;
  }
  EXPECT_EQ(report.isa, active_simd_isa());
}

}  // namespace
}  // namespace safenn::linalg
