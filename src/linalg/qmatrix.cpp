#include "linalg/qmatrix.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

// Same architecture gates as kernels.cpp: AVX2 functions carry a target
// attribute and only run after the __builtin_cpu_supports check; NEON is
// baseline on AArch64.
#if defined(SAFENN_ENABLE_SIMD) && (defined(__x86_64__) || defined(__i386__))
#define SAFENN_QSIMD_X86 1
#include <immintrin.h>
#endif
#if defined(SAFENN_ENABLE_SIMD) && defined(__ARM_NEON)
#define SAFENN_QSIMD_NEON 1
#include <arm_neon.h>
#endif

namespace safenn::linalg {
namespace qkernels {
namespace {

// ---------------------------------------------------------------------
// Scalar reference: one int64 accumulator per output element, ascending
// p. Order is irrelevant for the result (exact integers) but this is
// the semantics every other backend must reproduce bit for bit.
// ---------------------------------------------------------------------

void scalar_qgemm_nt(std::int64_t* c, const Int32Matrix& x,
                     const Int16Matrix& w) {
  const std::size_t m = x.rows(), k = x.cols(), n = w.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t* xrow = x.row(i);
    std::int64_t* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int16_t* wrow = w.row(j);
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<std::int64_t>(xrow[p]) *
               static_cast<std::int64_t>(wrow[p]);
      }
      crow[j] += acc;
    }
  }
}

// ---------------------------------------------------------------------
// AVX2 kernel: activations load as 8 x int32, weights sign-extend from
// int16, products widen to int64 via _mm256_mul_epi32 (even lanes +
// odd lanes shuffled even), accumulated in 4 x int64 registers. Four
// weight rows share each pass over the activation row. All arithmetic
// is exact — the only difference from the scalar kernel is summation
// order, which integer addition does not observe.
// ---------------------------------------------------------------------

#if defined(SAFENN_QSIMD_X86)

__attribute__((target("avx2"))) inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i pair = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(pair) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(pair, pair));
}

// One weight row's contribution for 8 packed elements: products of the
// even int32 lanes plus products of the odd lanes (shuffled into even
// position; _mm256_mul_epi32 reads the low 32 bits of each 64-bit lane,
// sign-extended).
__attribute__((target("avx2"))) inline __m256i qdot8(__m256i xv, __m256i xodd,
                                                     const std::int16_t* wp,
                                                     __m256i acc) {
  const __m256i wv =
      _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(wp)));
  const __m256i wodd = _mm256_shuffle_epi32(wv, 0xF5);
  acc = _mm256_add_epi64(acc, _mm256_mul_epi32(xv, wv));
  return _mm256_add_epi64(acc, _mm256_mul_epi32(xodd, wodd));
}

__attribute__((target("avx2"))) void avx2_qgemm_nt(std::int64_t* c,
                                                   const Int32Matrix& x,
                                                   const Int16Matrix& w) {
  const std::size_t m = x.rows(), n = w.rows();
  const std::size_t kp = x.stride();  // padded length; padding is zero
  constexpr std::size_t kTile = 4;    // weight rows per pass over xrow
  const std::size_t n_tile = n - n % kTile;
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t* xrow = x.row(i);
    std::int64_t* crow = c + i * n;
    std::size_t j = 0;
    for (; j < n_tile; j += kTile) {
      const std::int16_t* w0 = w.row(j);
      const std::int16_t* w1 = w.row(j + 1);
      const std::int16_t* w2 = w.row(j + 2);
      const std::int16_t* w3 = w.row(j + 3);
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (std::size_t p = 0; p < kp; p += 8) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xrow + p));
        const __m256i xodd = _mm256_shuffle_epi32(xv, 0xF5);
        acc0 = qdot8(xv, xodd, w0 + p, acc0);
        acc1 = qdot8(xv, xodd, w1 + p, acc1);
        acc2 = qdot8(xv, xodd, w2 + p, acc2);
        acc3 = qdot8(xv, xodd, w3 + p, acc3);
      }
      crow[j] += hsum_epi64(acc0);
      crow[j + 1] += hsum_epi64(acc1);
      crow[j + 2] += hsum_epi64(acc2);
      crow[j + 3] += hsum_epi64(acc3);
    }
    for (; j < n; ++j) {
      const std::int16_t* wrow = w.row(j);
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t p = 0; p < kp; p += 8) {
        const __m256i xv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xrow + p));
        acc = qdot8(xv, _mm256_shuffle_epi32(xv, 0xF5), wrow + p, acc);
      }
      crow[j] += hsum_epi64(acc);
    }
  }
}

// ---------------------------------------------------------------------
// AVX-512 kernel: same scheme at twice the width — 16 x int32 per pass,
// two 8-product vpmuldq per weight row, int64 accumulation in zmm.
// Integer kernels are bitwise-gated, so the wider ISA needs no separate
// tolerance story; it dispatches only after a runtime avx512f check.
// ---------------------------------------------------------------------

// GCC 12 flags the undefined-vector idiom inside avx512fintrin.h as
// -Wmaybe-uninitialized in every intrinsic inlined here: false positives.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f"))) inline __m512i qdot16(
    __m512i xv, __m512i xodd, const std::int16_t* wp, __m512i acc) {
  const __m512i wv = _mm512_cvtepi16_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wp)));
  const __m512i wodd =
      _mm512_shuffle_epi32(wv, static_cast<_MM_PERM_ENUM>(0xF5));
  acc = _mm512_add_epi64(acc, _mm512_mul_epi32(xv, wv));
  return _mm512_add_epi64(acc, _mm512_mul_epi32(xodd, wodd));
}

__attribute__((target("avx512f"))) void avx512_qgemm_nt(std::int64_t* c,
                                                        const Int32Matrix& x,
                                                        const Int16Matrix& w) {
  const std::size_t m = x.rows(), n = w.rows();
  const std::size_t kp = x.stride();  // multiple of 16; padding is zero
  constexpr std::size_t kTile = 4;
  const std::size_t n_tile = n - n % kTile;
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t* xrow = x.row(i);
    std::int64_t* crow = c + i * n;
    std::size_t j = 0;
    for (; j < n_tile; j += kTile) {
      const std::int16_t* w0 = w.row(j);
      const std::int16_t* w1 = w.row(j + 1);
      const std::int16_t* w2 = w.row(j + 2);
      const std::int16_t* w3 = w.row(j + 3);
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      for (std::size_t p = 0; p < kp; p += 16) {
        const __m512i xv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(xrow + p));
        const __m512i xodd =
            _mm512_shuffle_epi32(xv, static_cast<_MM_PERM_ENUM>(0xF5));
        acc0 = qdot16(xv, xodd, w0 + p, acc0);
        acc1 = qdot16(xv, xodd, w1 + p, acc1);
        acc2 = qdot16(xv, xodd, w2 + p, acc2);
        acc3 = qdot16(xv, xodd, w3 + p, acc3);
      }
      crow[j] += _mm512_reduce_add_epi64(acc0);
      crow[j + 1] += _mm512_reduce_add_epi64(acc1);
      crow[j + 2] += _mm512_reduce_add_epi64(acc2);
      crow[j + 3] += _mm512_reduce_add_epi64(acc3);
    }
    for (; j < n; ++j) {
      const std::int16_t* wrow = w.row(j);
      __m512i acc = _mm512_setzero_si512();
      for (std::size_t p = 0; p < kp; p += 16) {
        const __m512i xv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(xrow + p));
        acc = qdot16(xv, _mm512_shuffle_epi32(
                             xv, static_cast<_MM_PERM_ENUM>(0xF5)),
                     wrow + p, acc);
      }
      crow[j] += _mm512_reduce_add_epi64(acc);
    }
  }
}

#pragma GCC diagnostic pop

#endif  // SAFENN_QSIMD_X86

// ---------------------------------------------------------------------
// NEON kernel (AArch64): widen int16 weights to int32, multiply into
// int64 pairs with vmull_s32 over low/high halves.
// ---------------------------------------------------------------------

#if defined(SAFENN_QSIMD_NEON)

void neon_qgemm_nt(std::int64_t* c, const Int32Matrix& x,
                   const Int16Matrix& w) {
  const std::size_t m = x.rows(), n = w.rows();
  const std::size_t kp = x.stride();
  for (std::size_t i = 0; i < m; ++i) {
    const std::int32_t* xrow = x.row(i);
    std::int64_t* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int16_t* wrow = w.row(j);
      int64x2_t acc = vdupq_n_s64(0);
      for (std::size_t p = 0; p < kp; p += 4) {
        const int32x4_t xv = vld1q_s32(xrow + p);
        const int32x4_t wv = vmovl_s16(vld1_s16(wrow + p));
        acc = vaddq_s64(acc, vmull_s32(vget_low_s32(xv), vget_low_s32(wv)));
        acc = vaddq_s64(acc,
                        vmull_s32(vget_high_s32(xv), vget_high_s32(wv)));
      }
      crow[j] += vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
    }
  }
}

#endif  // SAFENN_QSIMD_NEON

}  // namespace

void qgemm_nt_reference(std::int64_t* c, const Int32Matrix& x,
                        const Int16Matrix& w) {
  require(x.cols() == w.cols(), "qgemm_nt: contraction width mismatch");
  scalar_qgemm_nt(c, x, w);
}

const std::vector<QgemmKernel>& qgemm_nt_kernels() {
  static const std::vector<QgemmKernel> kernels = [] {
    std::vector<QgemmKernel> k{{"scalar", scalar_qgemm_nt, true}};
#if defined(SAFENN_QSIMD_X86)
    // The 512-bit path needs only the extra avx512f check: integer
    // results are exact on every lane width. Both packed strides are
    // multiples of kQuantPad = 16 elements, so whole 16-element groups
    // are always in-bounds and the padding lanes are zero.
    const bool avx2 = active_simd_isa() == SimdIsa::kAvx2Fma;
    k.push_back({"avx2", avx2_qgemm_nt, avx2});
    k.push_back({"avx512", avx512_qgemm_nt,
                 avx2 && __builtin_cpu_supports("avx512f") != 0});
#endif
#if defined(SAFENN_QSIMD_NEON)
    k.push_back({"neon", neon_qgemm_nt, active_simd_isa() == SimdIsa::kNeon});
#endif
    return k;
  }();
  return kernels;
}

void qgemm_nt(std::int64_t* c, const Int32Matrix& x, const Int16Matrix& w,
              KernelBackend backend) {
  require(x.cols() == w.cols(), "qgemm_nt: contraction width mismatch");
  if (backend == KernelBackend::kReference) {
    scalar_qgemm_nt(c, x, w);
    return;
  }
  // The last supported kernel is the widest this CPU runs (the scalar
  // one on a portable build); every kernel's result is the same.
  static const QgemmKernelFn widest = [] {
    const std::vector<QgemmKernel>& k = qgemm_nt_kernels();
    return std::find_if(k.rbegin(), k.rend(),
                        [](const QgemmKernel& q) { return q.supported; })
        ->run;
  }();
  widest(c, x, w);
}

}  // namespace qkernels

std::string QuantKernelReport::summary() const {
  std::ostringstream os;
  os << "quantized kernels on " << to_string(isa) << ": " << checks.size()
     << " checks, worst |diff| " << worst_abs_diff << " -> "
     << (pass ? "PASS (bitwise)" : "FAIL");
  return os.str();
}

QuantKernelReport verify_quantized_kernels(
    const QuantKernelVerifyConfig& config) {
  QuantKernelReport report;
  report.isa = active_simd_isa();

  std::vector<QuantShape> shapes = {
      {0, 0, 0},  {0, 3, 2},  {1, 1, 1},  {1, 0, 1},  {3, 8, 4},
      {2, 16, 8}, {5, 9, 7},  {4, 13, 5}, {7, 24, 3}, {1, 7, 1},
      {6, 33, 9}, {32, 84, 15},
  };
  Rng rng(config.seed);
  // Inclusive uniform draw in [lo, hi] on top of Rng::uniform_index.
  const auto rand_in = [&rng](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng.uniform_index(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (std::size_t t = 0; t < config.random_trials; ++t) {
    shapes.push_back(
        {static_cast<std::size_t>(rng.uniform_index(config.max_dim + 1)),
         static_cast<std::size_t>(rng.uniform_index(config.max_dim + 1)),
         static_cast<std::size_t>(rng.uniform_index(config.max_dim + 1))});
  }
  shapes.insert(shapes.end(), config.extra_shapes.begin(),
                config.extra_shapes.end());

  for (const QuantShape& s : shapes) {
    Int32Matrix x(s.m, s.k);
    Int16Matrix w(s.n, s.k);
    // Full-range weights and large-magnitude activations: |x| up to
    // 2^24 with |w| up to 2^15 over k <= 64ish stays far inside int64
    // while stressing the widening paths.
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t p = 0; p < s.k; ++p) {
        x(i, p) = static_cast<std::int32_t>(rand_in(-(1 << 24), 1 << 24));
      }
    }
    for (std::size_t j = 0; j < s.n; ++j) {
      for (std::size_t p = 0; p < s.k; ++p) {
        w(j, p) = static_cast<std::int16_t>(rand_in(-32768, 32767));
      }
    }
    std::vector<std::int64_t> c_ref(s.m * s.n, 0);
    std::vector<std::int64_t> c_simd(s.m * s.n, 0);
    // Nonzero initial accumulators exercise the += contract too.
    for (std::size_t e = 0; e < c_ref.size(); ++e) {
      c_ref[e] = c_simd[e] = static_cast<std::int64_t>(e) * 1007 - 42;
    }
    qkernels::qgemm_nt_reference(c_ref.data(), x, w);
    qkernels::qgemm_nt(c_simd.data(), x, w, KernelBackend::kQuantized);

    QuantKernelCheck check;
    check.m = s.m;
    check.k = s.k;
    check.n = s.n;
    for (std::size_t e = 0; e < c_ref.size(); ++e) {
      const std::uint64_t diff =
          c_ref[e] >= c_simd[e]
              ? static_cast<std::uint64_t>(c_ref[e] - c_simd[e])
              : static_cast<std::uint64_t>(c_simd[e] - c_ref[e]);
      check.max_abs_diff = std::max(check.max_abs_diff, diff);
    }
    check.pass = check.max_abs_diff == 0;
    report.worst_abs_diff =
        std::max(report.worst_abs_diff, check.max_abs_diff);
    report.pass = report.pass && check.pass;
    report.checks.push_back(check);
  }
  return report;
}

}  // namespace safenn::linalg
