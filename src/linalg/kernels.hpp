// The float GEMM kernels and the host's vector ISA.
//
// One float arithmetic: every output element of the three GEMM kernels
// below is one ascending-k chain of "multiply, round, add, round"
// starting from +0.0 (NT) or from the existing C entry (NN, TN). That is
// the rounding of the per-sample matvec/add_outer path, so the batched
// nn path matches per-sample results bit for bit, data-parallel training
// is worker-count invariant, and the MILP/SMT encodings reason about the
// arithmetic that actually serves.
//
// On AVX2 hosts the kernels run vectorized without changing any chain:
// one vector lane owns one output element's chain (never a slice of k),
// multiplies then adds (never a fused multiply-add), and walks k in
// ascending order. Every other host, and every build with
// SAFENN_ENABLE_SIMD=OFF, runs the scalar loops. Both are bitwise equal
// (tests/test_linalg.cpp ExactKernels.*). The build pins
// -ffp-contract=off so the compiler cannot fuse the scalar loops either.
#pragma once

#include <cstddef>
#include <string>

namespace safenn::linalg {

/// Which arithmetic a forward pass runs.
enum class KernelBackend {
  kReference,  ///< The float kernels below; bitwise-reproducible on every
               ///< host and ISA.
  kQuantized,  ///< Fixed-point integer engine (linalg/qmatrix.hpp); every
               ///< ISA is bitwise equal to the scalar integer reference.
               ///< Not valid for the float GEMM family — those throw.
};

std::string to_string(KernelBackend backend);

/// Vector instruction set this host dispatches to.
enum class SimdIsa {
  kPortable,  ///< Scalar loops.
  kAvx2Fma,   ///< x86-64 AVX2 (+ FMA, used by no float kernel).
  kNeon,      ///< AArch64 NEON (integer kernels only).
};

/// Runtime-detected ISA (cached after the first call). kPortable when the
/// build has SIMD disabled or the CPU lacks the required extensions.
SimdIsa active_simd_isa();
const char* to_string(SimdIsa isa);

/// True when this build compiled the explicit vector kernels
/// (SAFENN_ENABLE_SIMD=ON and a recognised architecture).
bool simd_kernels_compiled();

namespace kernels {

// Row-major raw-pointer contracts; each kernel dispatches on
// active_simd_isa().

/// c (m x n) += s * a (m x k) * b^T with b (n x k): for each (i, j),
/// sum = +0.0; sum += a[i][p] * b[j][p] for ascending p; c += s * sum.
void accumulate_nt(double* c, const double* a, const double* b, double s,
                   std::size_t m, std::size_t k, std::size_t n);

/// c (m x n) += a (m x k) * b (k x n): for each (i, j),
/// c += a[i][p] * b[p][j] for ascending p.
void accumulate_nn(double* c, const double* a, const double* b,
                   std::size_t m, std::size_t k, std::size_t n);

/// c (m x n) += s * a^T * b with a (k x m), b (k x n): for each (i, j),
/// sa = s * a[p][i]; c += sa * b[p][j] for ascending p (the per-sample
/// add_outer order).
void accumulate_tn(double* c, const double* a, const double* b, double s,
                   std::size_t k, std::size_t m, std::size_t n);

}  // namespace kernels

}  // namespace safenn::linalg
