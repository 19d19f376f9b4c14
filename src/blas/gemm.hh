/**
 * @file
 * Single-precision general matrix multiply (SGEMM).
 *
 * spg-CNN cannot link a third-party BLAS, so this module provides a
 * from-scratch replacement: a register-blocked AVX2/FMA micro-kernel
 * wrapped in BLIS-style cache blocking with operand packing. Both the
 * Unfold+Parallel-GEMM baseline and the GEMM-in-Parallel schedule of
 * the paper are built from the same micro-kernel, so relative
 * comparisons between schedules are apples-to-apples. The fully-
 * connected forward pass reuses the same k blocking and multiply-add
 * through gemmNtPacked, over a weight operand packed once per version.
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

/**
 * A right operand B (n x k, row-major) kept as B^T in column blocks of
 * kNtLanes: element (j, p) of B lives at
 *
 *     bt[((j / kNtLanes) * k + p) * kNtLanes + j % kNtLanes]
 *
 * so each block is k contiguous 16-float rows. Lanes past n are never
 * written by packNtColumns and never stored by gemmNtPacked; allocate
 * the buffer zeroed so they hold no denormals or NaNs.
 */
constexpr std::int64_t kNtLanes = 16;

/** @return floats the packed B^T of an n x k matrix B occupies. */
std::int64_t packedNtElems(std::int64_t n, std::int64_t k);

/**
 * Copy columns [p0, p1) of B (n x k, row-major) into the packed B^T
 * @p bt. Disjoint column ranges write disjoint floats, so callers may
 * split [0, k) across a pool.
 */
void packNtColumns(const float *b, std::int64_t n, std::int64_t k,
                   std::int64_t p0, std::int64_t p1, float *bt);

/**
 * C (m x n, ldc n) = A (m x k, lda k) * B^T from a packed B^T, rows of
 * C split over the pool. Byte-identical to sgemm(Trans::No, Trans::Yes,
 * m, n, k, 1, a, k, b, k, 0, c, n) and so to parallelGemm at any pool
 * size: every element runs sgemm's per-k-block multiply-add chain from
 * zero, stores block 0 and adds the later blocks in order. B is read
 * once per weight version instead of re-packed on every call.
 */
void gemmNtPacked(ThreadPool &pool, std::int64_t m, std::int64_t n,
                  std::int64_t k, const float *a, const float *bt,
                  float *c);

} // namespace spg

#endif // SPG_BLAS_GEMM_HH
