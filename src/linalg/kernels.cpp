#include "linalg/kernels.hpp"

#include <algorithm>

#include "common/error.hpp"

// Architecture gate. The AVX2 functions carry a target attribute, so
// they compile in a portable (no -mavx2) build and are only entered
// after the runtime __builtin_cpu_supports check.
#if defined(SAFENN_ENABLE_SIMD) && (defined(__x86_64__) || defined(__i386__))
#define SAFENN_SIMD_X86 1
#include <immintrin.h>
#endif

namespace safenn::linalg {

std::string to_string(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kReference: return "reference";
    case KernelBackend::kQuantized: return "quantized";
  }
  throw Error("to_string: unknown kernel backend");
}

const char* to_string(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kPortable: return "portable";
    case SimdIsa::kAvx2Fma: return "avx2+fma";
    case SimdIsa::kNeon: return "neon";
  }
  throw Error("to_string: unknown SIMD ISA");
}

bool simd_kernels_compiled() {
#if defined(SAFENN_SIMD_X86) || \
    (defined(SAFENN_ENABLE_SIMD) && defined(__ARM_NEON))
  return true;
#else
  return false;
#endif
}

SimdIsa active_simd_isa() {
  static const SimdIsa isa = [] {
#if defined(SAFENN_SIMD_X86)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return SimdIsa::kAvx2Fma;
    }
#elif defined(SAFENN_ENABLE_SIMD) && defined(__ARM_NEON)
    return SimdIsa::kNeon;
#endif
    return SimdIsa::kPortable;
  }();
  return isa;
}

namespace kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar kernels: the definition of the arithmetic, and what every host
// without AVX2 runs.
// ---------------------------------------------------------------------

// K-panel height of the NN kernel: a kKc x n panel of B stays
// cache-resident while a block of A rows streams through it.
constexpr std::size_t kKc = 64;
// NT register tile: kJr rows of B share one pass over a row of A, each
// with its own independent accumulator chain.
constexpr std::size_t kJr = 4;

/// W independent ascending-k dot products of `arow` against W
/// consecutive length-k rows of B starting at `brows`, accumulated into
/// crow[0..W) scaled by `s`.
template <std::size_t W>
inline void nt_dot_tile(const double* arow, const double* brows,
                        std::size_t k, double s, double* crow) {
  double sums[W] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const double av = arow[p];
    for (std::size_t w = 0; w < W; ++w) sums[w] += av * brows[w * k + p];
  }
  for (std::size_t w = 0; w < W; ++w) crow[w] += s * sums[w];
}

/// The NT kernel's columns [j0, n) of row `arow`, one chain at a time —
/// the remainder the vector tiles leave.
inline void nt_tail(const double* arow, const double* b, std::size_t k,
                    double s, double* crow, std::size_t j0, std::size_t n) {
  for (std::size_t j = j0; j < n; ++j) {
    nt_dot_tile<1>(arow, b + j * k, k, s, crow + j);
  }
}

void scalar_accumulate_nt(double* c, const double* a, const double* b,
                          double s, std::size_t m, std::size_t k,
                          std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::size_t j = 0;
    for (; j + kJr <= n; j += kJr) {
      nt_dot_tile<kJr>(arow, b + j * k, k, s, crow + j);
    }
    nt_tail(arow, b, k, s, crow, j, n);
  }
}

void scalar_accumulate_nn(double* c, const double* a, const double* b,
                          std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t k_end = std::min(k, kk + kKc);
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n;
      for (std::size_t p = kk; p < k_end; ++p) {
        const double ap = arow[p];
        const double* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += ap * brow[j];
      }
    }
  }
}

void scalar_accumulate_tn(double* c, const double* a, const double* b,
                          double s, std::size_t k, std::size_t m,
                          std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * m;
    const double* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double sa = s * arow[i];
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += sa * brow[j];
    }
  }
}

// ---------------------------------------------------------------------
// AVX2 kernels. Each lane owns one output element and applies exactly
// the scalar kernel's operations to it, in the same order: _mm256_mul_pd
// then _mm256_add_pd, never FMA. GCC treats these intrinsics as plain
// vector arithmetic, so under an FMA-capable -march only the pinned
// -ffp-contract=off keeps it from fusing them.
// ---------------------------------------------------------------------

#if defined(SAFENN_SIMD_X86)

#define SAFENN_AVX2 __attribute__((target("avx2")))

/// {lo[0], lo[1], hi[0], hi[1]}.
SAFENN_AVX2 inline __m256d pair(const double* lo, const double* hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                              _mm_loadu_pd(hi), 1);
}

/// Columns p..p+3 of B's rows j..j+3 (row stride k) as four lane vectors
/// {b[j][q], b[j+1][q], b[j+2][q], b[j+3][q]}: a 4x4 transpose in
/// registers from 128-bit loads, with no copy of B.
SAFENN_AVX2 inline void load_columns(const double* bj, std::size_t k,
                                     __m256d col[4]) {
  const __m256d r02 = pair(bj, bj + 2 * k);          // b0[p..p+1] b2[p..p+1]
  const __m256d r13 = pair(bj + k, bj + 3 * k);      // b1[p..p+1] b3[p..p+1]
  const __m256d s02 = pair(bj + 2, bj + 2 * k + 2);  // b0[p+2..3] b2[p+2..3]
  const __m256d s13 = pair(bj + k + 2, bj + 3 * k + 2);
  col[0] = _mm256_unpacklo_pd(r02, r13);
  col[1] = _mm256_unpackhi_pd(r02, r13);
  col[2] = _mm256_unpacklo_pd(s02, s13);
  col[3] = _mm256_unpackhi_pd(s02, s13);
}

/// One step of every lane's chain: acc + (*ap) * col, *ap broadcast.
SAFENN_AVX2 inline __m256d step(__m256d acc, const double* ap, __m256d col) {
  return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_broadcast_sd(ap), col));
}

/// acc += ap[q] * col[q] for q = 0..3 in turn: four steps of one chain.
SAFENN_AVX2 inline __m256d chain4(__m256d acc, const double* ap,
                                  const __m256d col[4]) {
  acc = step(acc, ap, col[0]);
  acc = step(acc, ap + 1, col[1]);
  acc = step(acc, ap + 2, col[2]);
  return step(acc, ap + 3, col[3]);
}

/// Column p of B's rows bj, bj + k, bj + 2k, bj + 3k (the k % 4 tail).
SAFENN_AVX2 inline __m256d column(const double* bj, std::size_t k) {
  return _mm256_set_pd(bj[3 * k], bj[2 * k], bj[k], bj[0]);
}

/// crow[0..4) += s * acc.
SAFENN_AVX2 inline void store_tile(double* crow, double s, __m256d acc) {
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow),
                                       _mm256_mul_pd(_mm256_set1_pd(s), acc)));
}

/// Four rows of A (row stride k) against one j-tile of four B rows: the
/// four rows share each transposed tile, four chains in flight.
SAFENN_AVX2 void nt_rows4(const double* a, const double* bj, std::size_t k,
                          double s, double* c, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
  const double* a1 = a + k;
  const double* a2 = a1 + k;
  const double* a3 = a2 + k;
  const std::size_t k4 = k - k % 4;
  std::size_t p = 0;
  for (; p < k4; p += 4) {
    __m256d col[4];
    load_columns(bj + p, k, col);
    acc0 = chain4(acc0, a + p, col);
    acc1 = chain4(acc1, a1 + p, col);
    acc2 = chain4(acc2, a2 + p, col);
    acc3 = chain4(acc3, a3 + p, col);
  }
  for (; p < k; ++p) {
    const __m256d col = column(bj + p, k);
    acc0 = step(acc0, a + p, col);
    acc1 = step(acc1, a1 + p, col);
    acc2 = step(acc2, a2 + p, col);
    acc3 = step(acc3, a3 + p, col);
  }
  store_tile(c, s, acc0);
  store_tile(c + n, s, acc1);
  store_tile(c + 2 * n, s, acc2);
  store_tile(c + 3 * n, s, acc3);
}

/// One row of A against TILES consecutive j-tiles (B rows bj .. bj +
/// 4 * TILES - 1): one chain per tile, all in flight together, since a
/// single chain would wait on the add latency.
template <std::size_t TILES>
SAFENN_AVX2 void nt_row_tiles(const double* arow, const double* bj,
                              std::size_t k, double s, double* crow) {
  static_assert(TILES >= 1 && TILES <= 4);
  const std::size_t tile = 4 * k;  // B elements per j-tile
  __m256d acc0 = _mm256_setzero_pd(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
  const std::size_t k4 = k - k % 4;
  std::size_t p = 0;
  for (; p < k4; p += 4) {
    __m256d col[4];
    load_columns(bj + p, k, col);
    acc0 = chain4(acc0, arow + p, col);
    if constexpr (TILES > 1) {
      load_columns(bj + tile + p, k, col);
      acc1 = chain4(acc1, arow + p, col);
    }
    if constexpr (TILES > 2) {
      load_columns(bj + 2 * tile + p, k, col);
      acc2 = chain4(acc2, arow + p, col);
    }
    if constexpr (TILES > 3) {
      load_columns(bj + 3 * tile + p, k, col);
      acc3 = chain4(acc3, arow + p, col);
    }
  }
  for (; p < k; ++p) {
    acc0 = step(acc0, arow + p, column(bj + p, k));
    if constexpr (TILES > 1) {
      acc1 = step(acc1, arow + p, column(bj + tile + p, k));
    }
    if constexpr (TILES > 2) {
      acc2 = step(acc2, arow + p, column(bj + 2 * tile + p, k));
    }
    if constexpr (TILES > 3) {
      acc3 = step(acc3, arow + p, column(bj + 3 * tile + p, k));
    }
  }
  store_tile(crow, s, acc0);
  if constexpr (TILES > 1) store_tile(crow + 4, s, acc1);
  if constexpr (TILES > 2) store_tile(crow + 8, s, acc2);
  if constexpr (TILES > 3) store_tile(crow + 12, s, acc3);
}

SAFENN_AVX2 void avx2_accumulate_nt(double* c, const double* a,
                                    const double* b, double s, std::size_t m,
                                    std::size_t k, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    for (std::size_t j = 0; j < n4; j += 4) {
      nt_rows4(a + i * k, b + j * k, k, s, c + i * n + j, n);
    }
    for (std::size_t r = i; r < i + 4; ++r) {
      nt_tail(a + r * k, b, k, s, c + r * n, n4, n);
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 16 <= n4; j += 16) {
      nt_row_tiles<4>(arow, b + j * k, k, s, crow + j);
    }
    switch ((n4 - j) / 4) {
      case 3: nt_row_tiles<3>(arow, b + j * k, k, s, crow + j); break;
      case 2: nt_row_tiles<2>(arow, b + j * k, k, s, crow + j); break;
      case 1: nt_row_tiles<1>(arow, b + j * k, k, s, crow + j); break;
      default: break;
    }
    nt_tail(arow, b, k, s, crow, n4, n);
  }
}

/// c[0..16) += x(p) * b[p * n .. + 16) for ascending p, the sixteen
/// columns held in four registers (four chains) across the contraction.
template <class X>
SAFENN_AVX2 inline void strip16(double* c, const double* b, std::size_t n,
                                std::size_t k, X x) {
  __m256d c0 = _mm256_loadu_pd(c), c1 = _mm256_loadu_pd(c + 4),
          c2 = _mm256_loadu_pd(c + 8), c3 = _mm256_loadu_pd(c + 12);
  for (std::size_t p = 0; p < k; ++p) {
    const __m256d xv = _mm256_set1_pd(x(p));
    const double* bp = b + p * n;
    c0 = _mm256_add_pd(c0, _mm256_mul_pd(xv, _mm256_loadu_pd(bp)));
    c1 = _mm256_add_pd(c1, _mm256_mul_pd(xv, _mm256_loadu_pd(bp + 4)));
    c2 = _mm256_add_pd(c2, _mm256_mul_pd(xv, _mm256_loadu_pd(bp + 8)));
    c3 = _mm256_add_pd(c3, _mm256_mul_pd(xv, _mm256_loadu_pd(bp + 12)));
  }
  _mm256_storeu_pd(c, c0);
  _mm256_storeu_pd(c + 4, c1);
  _mm256_storeu_pd(c + 8, c2);
  _mm256_storeu_pd(c + 12, c3);
}

/// strip16 for four columns.
template <class X>
SAFENN_AVX2 inline void strip4(double* c, const double* b, std::size_t n,
                               std::size_t k, X x) {
  __m256d c0 = _mm256_loadu_pd(c);
  for (std::size_t p = 0; p < k; ++p) {
    c0 = _mm256_add_pd(c0, _mm256_mul_pd(_mm256_set1_pd(x(p)),
                                         _mm256_loadu_pd(b + p * n)));
  }
  _mm256_storeu_pd(c, c0);
}

/// c (m x n) += X * b with b (k x n) and X (m x k) given by x(i, p):
/// every element's updates c += x(i, p) * b[p][j] run in ascending p, as
/// in the scalar NN and TN kernels, which differ only in x. Column strips
/// run outermost so each strip of b is reused from cache by every row.
template <class X>
SAFENN_AVX2 void accumulate_strips(double* c, const double* b, std::size_t m,
                                   std::size_t k, std::size_t n, X x) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    for (std::size_t i = 0; i < m; ++i) {
      strip16(c + i * n + j, b + j, n, k, [&](std::size_t p) { return x(i, p); });
    }
  }
  for (; j + 4 <= n; j += 4) {
    for (std::size_t i = 0; i < m; ++i) {
      strip4(c + i * n + j, b + j, n, k, [&](std::size_t p) { return x(i, p); });
    }
  }
  for (; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < k; ++p) c[i * n + j] += x(i, p) * b[p * n + j];
    }
  }
}

SAFENN_AVX2 void avx2_accumulate_nn(double* c, const double* a,
                                    const double* b, std::size_t m,
                                    std::size_t k, std::size_t n) {
  accumulate_strips(c, b, m, k, n,
                    [=](std::size_t i, std::size_t p) { return a[i * k + p]; });
}

SAFENN_AVX2 void avx2_accumulate_tn(double* c, const double* a,
                                    const double* b, double s, std::size_t k,
                                    std::size_t m, std::size_t n) {
  // sa = s * a[p][i], then c += sa * b[p][j]: the scalar kernel's steps.
  accumulate_strips(c, b, m, k, n, [=](std::size_t i, std::size_t p) {
    return s * a[p * m + i];
  });
}

#undef SAFENN_AVX2

#endif  // SAFENN_SIMD_X86

}  // namespace

void accumulate_nt(double* c, const double* a, const double* b, double s,
                   std::size_t m, std::size_t k, std::size_t n) {
#if defined(SAFENN_SIMD_X86)
  if (active_simd_isa() == SimdIsa::kAvx2Fma) {
    avx2_accumulate_nt(c, a, b, s, m, k, n);
    return;
  }
#endif
  scalar_accumulate_nt(c, a, b, s, m, k, n);
}

void accumulate_nn(double* c, const double* a, const double* b,
                   std::size_t m, std::size_t k, std::size_t n) {
#if defined(SAFENN_SIMD_X86)
  if (active_simd_isa() == SimdIsa::kAvx2Fma) {
    avx2_accumulate_nn(c, a, b, m, k, n);
    return;
  }
#endif
  scalar_accumulate_nn(c, a, b, m, k, n);
}

void accumulate_tn(double* c, const double* a, const double* b, double s,
                   std::size_t k, std::size_t m, std::size_t n) {
#if defined(SAFENN_SIMD_X86)
  if (active_simd_isa() == SimdIsa::kAvx2Fma) {
    avx2_accumulate_tn(c, a, b, s, k, m, n);
    return;
  }
#endif
  scalar_accumulate_tn(c, a, b, s, k, m, n);
}

}  // namespace kernels
}  // namespace safenn::linalg
