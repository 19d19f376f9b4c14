/**
 * @file
 * Sparse matrix storage: CSR and the paper's Column-Tiled CSR.
 *
 * CT-CSR (paper §4.2, Fig. 5a) tiles the matrix along columns and
 * stores each tile in CSR. Elements of adjacent rows within a tile are
 * adjacent in memory, which improves reuse and cuts the number of TLB
 * entries needed to walk a tile compared to plain CSR, whose row
 * stride is the full matrix width.
 */

#ifndef SPG_SPARSE_CSR_HH
#define SPG_SPARSE_CSR_HH

#include <cstdint>
#include <vector>

namespace spg {

/**
 * Compressed Sparse Row matrix over float values with 32-bit column
 * indices.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /**
     * Build from a dense row-major matrix, keeping elements that are
     * not exactly zero.
     *
     * @param dense Row-major source of size rows x cols.
     * @param rows Row count.
     * @param cols Column count.
     */
    static CsrMatrix fromDense(const float *dense, std::int64_t rows,
                               std::int64_t cols);

    /** Scatter back into a zeroed dense row-major buffer. */
    void toDense(float *dense) const;

    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }

    /** @return number of stored (non-zero) elements. */
    std::int64_t nnz() const
    {
        return static_cast<std::int64_t>(values.size());
    }

    /** @return fraction of elements that are zero. */
    double sparsity() const;

    /** Stored values, row-major order. */
    const std::vector<float> &vals() const { return values; }
    /** Column index of each stored value. */
    const std::vector<std::int32_t> &colIdx() const { return cols_idx; }
    /** Start offset of each row in vals()/colIdx(); size rows()+1. */
    const std::vector<std::int64_t> &rowPtr() const { return row_ptr; }

  private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::vector<float> values;
    std::vector<std::int32_t> cols_idx;
    std::vector<std::int64_t> row_ptr;

    // The fused CHW encoder fills tiles in place, reusing their
    // storage across minibatches.
    friend class CtCsrMatrix;
};

/**
 * Column-Tiled CSR: the matrix is split into column bands of width
 * tileWidth and each band is stored as an independent CSR whose column
 * indices are tile-local.
 */
class CtCsrMatrix
{
  public:
    CtCsrMatrix() = default;

    /**
     * Build from a dense row-major matrix.
     *
     * @param dense Row-major source of size rows x cols.
     * @param rows Row count.
     * @param cols Column count.
     * @param tile_width Column band width (>= 1).
     */
    static CtCsrMatrix fromDense(const float *dense, std::int64_t rows,
                                 std::int64_t cols,
                                 std::int64_t tile_width);

    /**
     * Fused encode from a [C][H][W] tensor of the matrix whose rows
     * are the H*W spatial positions and whose columns are the C
     * channels — i.e. the feature-fastest view the sparse BP kernel
     * consumes — WITHOUT materializing the dense [H][W][C] transpose.
     * Produces tiles byte-identical (rowPtr/colIdx/vals) to
     * chwToHwc + fromDense.
     *
     * An optional byte mask of the same [c][h][w] layout fuses the
     * ReLU backward gate into the encode: elements whose mask byte is
     * zero are treated as zero, producing the encoding of
     * (mask ? chw : 0) in the same single sweep — no separate masking
     * pass over the tensor.
     *
     * @param chw Source tensor, row-major [c][h][w].
     * @param c Channel (matrix column) count.
     * @param h Plane height.
     * @param w Plane width.
     * @param tile_width Column band width (>= 1).
     * @param mask Optional activity byte mask, same layout as @p chw.
     */
    static CtCsrMatrix fromChw(const float *chw, std::int64_t c,
                               std::int64_t h, std::int64_t w,
                               std::int64_t tile_width,
                               const std::uint8_t *mask = nullptr);

    /**
     * In-place variant of fromChw: re-encode into this matrix, reusing
     * the tile vectors as arena storage. A count pass sizes every
     * vector once, then a branch-free pass writes the rows in order,
     * so steady-state re-encodes of same-shaped tensors perform no
     * heap allocation.
     */
    void encodeFromChw(const float *chw, std::int64_t c, std::int64_t h,
                       std::int64_t w, std::int64_t tile_width,
                       const std::uint8_t *mask = nullptr);

    /** Scatter back into a zeroed dense row-major buffer. */
    void toDense(float *dense) const;

    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    std::int64_t tileWidth() const { return tile_width; }
    std::int64_t tileCount() const
    {
        return static_cast<std::int64_t>(tiles_.size());
    }

    /** @return total stored elements across tiles. */
    std::int64_t nnz() const;

    /** @return the t-th column band as a CSR (tile-local columns). */
    const CsrMatrix &tile(std::int64_t t) const { return tiles_[t]; }

    /** @return global column offset of tile t. */
    std::int64_t tileColOffset(std::int64_t t) const
    {
        return t * tile_width;
    }

  private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t tile_width = 0;
    std::vector<CsrMatrix> tiles_;
};

} // namespace spg

#endif // SPG_SPARSE_CSR_HH
