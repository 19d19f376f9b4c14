/**
 * @file
 * Single-precision general matrix multiply (SGEMM).
 *
 * spg-CNN cannot link a third-party BLAS, so this module provides a
 * from-scratch replacement: a register-blocked AVX2/FMA micro-kernel
 * wrapped in BLIS-style cache blocking with operand packing. Both the
 * Unfold+Parallel-GEMM baseline and the GEMM-in-Parallel schedule of
 * the paper are built from the same micro-kernel, so relative
 * comparisons between schedules are apples-to-apples.
 *
 * All matrices are row-major. The operation computed is
 *
 *     C = alpha * op(A) * op(B) + beta * C
 *
 * with op(X) = X or X^T per the Trans flags. op(A) is m x k and
 * op(B) is k x n; C is m x n with leading dimension ldc.
 */

#ifndef SPG_BLAS_GEMM_HH
#define SPG_BLAS_GEMM_HH

#include <cstdint>

#include "threading/thread_pool.hh"

namespace spg {

/** Whether an operand participates transposed. */
enum class Trans { No, Yes };

/** @return the number of floating point operations of an m x n x k MM. */
inline std::int64_t
gemmFlops(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return 2 * m * n * k;
}

/**
 * Reference triple-loop GEMM. Slow but obviously correct; used as the
 * oracle in tests and never on a hot path.
 */
void gemmNaive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float *a,
               std::int64_t lda, const float *b, std::int64_t ldb,
               float beta, float *c, std::int64_t ldc);

/**
 * Single-threaded blocked SIMD GEMM. This is the unit the paper's
 * GEMM-in-Parallel schedule replicates across cores.
 */
void sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float *a, std::int64_t lda,
           const float *b, std::int64_t ldb, float beta, float *c,
           std::int64_t ldc);

/**
 * Parallel-GEMM: ONE matrix multiply partitioned across the pool's
 * threads (rows of C, or columns when m is small). This is the
 * schedule used by CAFFE/MKL-style baselines; per-core AIT drops as
 * threads are added (paper §3.2).
 */
void parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
                  std::int64_t n, std::int64_t k, float alpha,
                  const float *a, std::int64_t lda, const float *b,
                  std::int64_t ldb, float beta, float *c,
                  std::int64_t ldc);

/** Convenience overloads with lda/ldb/ldc defaulted to the row width
 *  of the (possibly transposed) operands and alpha=1. */
void sgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float *a, const float *b, float beta,
           float *c);

void parallelGemm(ThreadPool &pool, Trans ta, Trans tb, std::int64_t m,
                  std::int64_t n, std::int64_t k, const float *a,
                  const float *b, float beta, float *c);

} // namespace spg

#endif // SPG_BLAS_GEMM_HH
