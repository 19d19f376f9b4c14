/**
 * @file
 * Sparse x dense matrix multiply kernels.
 *
 * The core primitive is C += A_sparse * B_dense with C and B row-major
 * dense. Each stored element a_ij contributes a_ij * B[j, :] to
 * C[i, :], so the inner loop is an AXPY over a contiguous dense row —
 * the shape of the basic block of the paper's sparse BP kernel
 * (Fig. 5b). The CT-CSR variant processes one column band of A
 * (rows of B) at a time so the touched B rows stay cache-resident.
 */

#ifndef SPG_SPARSE_SPARSE_MM_HH
#define SPG_SPARSE_SPARSE_MM_HH

#include <cstdint>

#include "sparse/csr.hh"

namespace spg {

/**
 * AXPY over a contiguous float span: y[0..n) += alpha * x[0..n).
 * Vectorized with AVX2/FMA when available.
 */
void axpy(std::int64_t n, float alpha, const float *x, float *y);

/**
 * C += A * B with A in CSR.
 *
 * @param a Sparse matrix, m x k.
 * @param b Dense row-major k x n.
 * @param n Dense column count.
 * @param c Dense row-major m x n, accumulated into.
 */
void csrTimesDense(const CsrMatrix &a, const float *b, std::int64_t n,
                   float *c);

/**
 * C += A * B with A in CT-CSR; column bands of A are processed one at
 * a time so only tileWidth rows of B are live per band.
 */
void ctcsrTimesDense(const CtCsrMatrix &a, const float *b, std::int64_t n,
                     float *c);

/**
 * @return flops actually performed by a sparse x dense product
 * (2 * nnz * n) — the numerator of the paper's goodput metric.
 */
inline std::int64_t
sparseMmFlops(std::int64_t nnz, std::int64_t n)
{
    return 2 * nnz * n;
}

} // namespace spg

#endif // SPG_SPARSE_SPARSE_MM_HH
