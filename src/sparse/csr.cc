#include "sparse/csr.hh"

#include <algorithm>

#if defined(__AVX512F__)
#include <immintrin.h>
#define SPG_CSR_AVX512 1
#endif

#include "util/logging.hh"

namespace spg {

CsrMatrix
CsrMatrix::fromDense(const float *dense, std::int64_t rows,
                     std::int64_t cols)
{
    SPG_ASSERT(rows >= 0 && cols >= 0);
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    // Count first so the value/index vectors are sized exactly once
    // instead of regrowing through push_back.
    std::int64_t nnz = 0;
    for (std::int64_t i = 0; i < rows * cols; ++i)
        nnz += dense[i] != 0.0f;
    m.values.reserve(nnz);
    m.cols_idx.reserve(nnz);
    m.row_ptr.reserve(rows + 1);
    m.row_ptr.push_back(0);
    for (std::int64_t i = 0; i < rows; ++i) {
        const float *row = dense + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) {
            if (row[j] != 0.0f) {
                m.values.push_back(row[j]);
                m.cols_idx.push_back(static_cast<std::int32_t>(j));
            }
        }
        m.row_ptr.push_back(static_cast<std::int64_t>(m.values.size()));
    }
    return m;
}

void
CsrMatrix::toDense(float *dense) const
{
    std::fill(dense, dense + rows_ * cols_, 0.0f);
    for (std::int64_t i = 0; i < rows_; ++i) {
        for (std::int64_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p)
            dense[i * cols_ + cols_idx[p]] = values[p];
    }
}

double
CsrMatrix::sparsity() const
{
    std::int64_t total = rows_ * cols_;
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

CtCsrMatrix
CtCsrMatrix::fromDense(const float *dense, std::int64_t rows,
                       std::int64_t cols, std::int64_t tile_width)
{
    SPG_ASSERT(tile_width >= 1);
    CtCsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.tile_width = tile_width;
    std::int64_t num_tiles = (cols + tile_width - 1) / tile_width;
    m.tiles_.reserve(num_tiles);

    // Extract each column band into a compact dense staging buffer,
    // then compress. The staging keeps fromDense simple and is cheap
    // relative to the downstream compute.
    std::vector<float> band;
    for (std::int64_t t = 0; t < num_tiles; ++t) {
        std::int64_t c0 = t * tile_width;
        std::int64_t w = std::min(tile_width, cols - c0);
        band.assign(rows * w, 0.0f);
        for (std::int64_t i = 0; i < rows; ++i) {
            const float *src = dense + i * cols + c0;
            std::copy(src, src + w, band.begin() + i * w);
        }
        m.tiles_.push_back(CsrMatrix::fromDense(band.data(), rows, w));
    }
    return m;
}

CtCsrMatrix
CtCsrMatrix::fromChw(const float *chw, std::int64_t c, std::int64_t h,
                     std::int64_t w, std::int64_t tile_width,
                     const std::uint8_t *mask)
{
    CtCsrMatrix m;
    m.encodeFromChw(chw, c, h, w, tile_width, mask);
    return m;
}

namespace {

/** Rows (and features) one SIMD step of the encode covers. */
constexpr std::int64_t kEncodeLanes = 16;

#if SPG_CSR_AVX512
/** Live lanes of 16 consecutive rows: value != 0 (NaN live, -0.0f
 *  dead, as fromDense's `!= 0.0f`) and, with a mask plane, mask
 *  byte != 0. */
inline __mmask16
liveLanes(__m512 v, const std::uint8_t *mplane, std::int64_t i)
{
    __mmask16 live =
        _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    if (mplane) {
        __m512i m = _mm512_maskz_cvtepu8_epi32(
            0xFFFF, _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(mplane + i)));
        live &= _mm512_test_epi32_mask(m, m);
    }
    return live;
}

/** Set lanes of a mask. Converted through _cvtmask16_u32 because GCC
 *  12 has folded __builtin_popcount of a spilled __mmask16 into a
 *  32-bit popcnt of its stack slot, counting stale upper bytes. */
inline std::int64_t
lanesSet(__mmask16 m)
{
    return _mm_popcnt_u32(_cvtmask16_u32(m));
}

/** In-register 16x16 transpose: r[j] lane i becomes r[i] lane j.
 *  (The maskz forms with an all-ones mask are the plain shuffles;
 *  GCC 12 warns on the plain forms' undefined pass-through.) */
inline void
transpose16(__m512 r[16])
{
    constexpr __mmask16 all = 0xFFFF;
    __m512 t[16];
    for (int i = 0; i < 8; ++i) {
        t[2 * i] = _mm512_maskz_unpacklo_ps(all, r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] =
            _mm512_maskz_unpackhi_ps(all, r[2 * i], r[2 * i + 1]);
    }
    for (int i = 0; i < 4; ++i) {
        r[4 * i] =
            _mm512_maskz_shuffle_ps(all, t[4 * i], t[4 * i + 2], 0x44);
        r[4 * i + 1] =
            _mm512_maskz_shuffle_ps(all, t[4 * i], t[4 * i + 2], 0xEE);
        r[4 * i + 2] =
            _mm512_maskz_shuffle_ps(all, t[4 * i + 1], t[4 * i + 3], 0x44);
        r[4 * i + 3] =
            _mm512_maskz_shuffle_ps(all, t[4 * i + 1], t[4 * i + 3], 0xEE);
    }
    // r[4g + k] now holds, in 128-bit lane L, column 4L + k of rows
    // 4g .. 4g + 3; gather each column's four row groups (0x88 takes
    // lanes 0 and 2 of each operand, 0xDD lanes 1 and 3).
    for (int k = 0; k < 4; ++k) {
        __m512 ab_lo = _mm512_maskz_shuffle_f32x4(all, r[k], r[4 + k], 0x88);
        __m512 ab_hi = _mm512_maskz_shuffle_f32x4(all, r[k], r[4 + k], 0xDD);
        __m512 cd_lo =
            _mm512_maskz_shuffle_f32x4(all, r[8 + k], r[12 + k], 0x88);
        __m512 cd_hi =
            _mm512_maskz_shuffle_f32x4(all, r[8 + k], r[12 + k], 0xDD);
        t[k] = _mm512_maskz_shuffle_f32x4(all, ab_lo, cd_lo, 0x88);
        t[k + 8] = _mm512_maskz_shuffle_f32x4(all, ab_lo, cd_lo, 0xDD);
        t[k + 4] = _mm512_maskz_shuffle_f32x4(all, ab_hi, cd_hi, 0x88);
        t[k + 12] = _mm512_maskz_shuffle_f32x4(all, ab_hi, cd_hi, 0xDD);
    }
    for (int i = 0; i < 16; ++i)
        r[i] = t[i];
}
#endif

/**
 * Pass 1 of the encode: the tile's live count, live = (mask != 0) &
 * (value != 0), 16 rows per step.
 */
std::int64_t
countLive(const float *planes, const std::uint8_t *masks,
          std::int64_t rows, std::int64_t width)
{
    std::int64_t nnz = 0;
    for (std::int64_t j = 0; j < width; ++j) {
        const float *plane = planes + j * rows;
        const std::uint8_t *mplane = masks ? masks + j * rows : nullptr;
        std::int64_t i = 0;
#if SPG_CSR_AVX512
        for (; i + kEncodeLanes <= rows; i += kEncodeLanes)
            nnz += lanesSet(
                liveLanes(_mm512_loadu_ps(plane + i), mplane, i));
#endif
        for (; i < rows; ++i)
            nnz += (!mplane || mplane[i] != 0) & (plane[i] != 0.0f);
    }
    return nnz;
}

} // namespace

void
CtCsrMatrix::encodeFromChw(const float *chw, std::int64_t c,
                           std::int64_t h, std::int64_t w,
                           std::int64_t tile_w, const std::uint8_t *mask)
{
    SPG_ASSERT(tile_w >= 1 && c >= 0 && h >= 0 && w >= 0);
    std::int64_t rows = h * w;
    rows_ = rows;
    cols_ = c;
    tile_width = tile_w;
    std::int64_t num_tiles = (c + tile_w - 1) / tile_w;
    tiles_.resize(num_tiles);

    // The matrix element (row, col) lives at chw[col * rows + row], so
    // each tile's column band is a contiguous run of source planes —
    // the dense [H][W][C] staging transpose of chwToHwc + fromDense is
    // never written.
    for (std::int64_t t = 0; t < num_tiles; ++t) {
        std::int64_t c0 = t * tile_w;
        std::int64_t width = std::min(tile_w, c - c0);
        const float *planes = chw + c0 * rows;
        const std::uint8_t *masks = mask ? mask + c0 * rows : nullptr;
        CsrMatrix &tile = tiles_[t];
        tile.rows_ = rows;
        tile.cols_ = width;

        // Pass 1 sizes the arrays. Pass 2 writes the rows in order,
        // each live element at the running cursor: every step stores a
        // whole vector (or one element) and advances by its live
        // count, so the dead lanes it writes past the cursor are
        // overwritten by the next step — no branch per element — and
        // the last step may write up to kEncodeLanes past nnz.
        std::int64_t nnz = countLive(planes, masks, rows, width);
        tile.values.resize(nnz + kEncodeLanes);
        tile.cols_idx.resize(nnz + kEncodeLanes);
        tile.row_ptr.resize(rows + 1);
        float *vals = tile.values.data();
        std::int32_t *cols = tile.cols_idx.data();
        std::int64_t cur = 0;
        std::int64_t i = 0;
#if SPG_CSR_AVX512
        // 16 rows at a time: load 16 features x 16 rows with the dead
        // lanes zeroed, transpose so each vector is one row's 16
        // features, and compress each row's live values and column
        // indices onto the cursor, feature blocks ascending.
        std::int64_t blocks = (width + kEncodeLanes - 1) / kEncodeLanes;
        static thread_local std::vector<float> stage;
        stage.resize(static_cast<std::size_t>(blocks * kEncodeLanes *
                                              kEncodeLanes));
        const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                               9, 10, 11, 12, 13, 14, 15);
        for (; i + kEncodeLanes <= rows; i += kEncodeLanes) {
            for (std::int64_t jb = 0; jb < blocks; ++jb) {
                __m512 r[kEncodeLanes];
                for (std::int64_t f = 0; f < kEncodeLanes; ++f) {
                    std::int64_t j = jb * kEncodeLanes + f;
                    if (j >= width) {
                        r[f] = _mm512_setzero_ps();
                        continue;
                    }
                    __m512 v = _mm512_loadu_ps(planes + j * rows + i);
                    r[f] = _mm512_maskz_mov_ps(
                        liveLanes(v, masks ? masks + j * rows : nullptr,
                                  i),
                        v);
                }
                transpose16(r);
                for (std::int64_t q = 0; q < kEncodeLanes; ++q)
                    _mm512_storeu_ps(
                        stage.data() + (q * blocks + jb) * kEncodeLanes,
                        r[q]);
            }
            for (std::int64_t q = 0; q < kEncodeLanes; ++q) {
                tile.row_ptr[i + q] = cur;
                for (std::int64_t jb = 0; jb < blocks; ++jb) {
                    __m512 x = _mm512_loadu_ps(
                        stage.data() + (q * blocks + jb) * kEncodeLanes);
                    __mmask16 live = _mm512_cmp_ps_mask(
                        x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
                    __m512i col = _mm512_add_epi32(
                        iota, _mm512_set1_epi32(
                                  static_cast<int>(jb * kEncodeLanes)));
                    _mm512_storeu_ps(vals + cur,
                                     _mm512_maskz_compress_ps(live, x));
                    _mm512_storeu_si512(
                        cols + cur, _mm512_maskz_compress_epi32(live, col));
                    cur += lanesSet(live);
                }
            }
        }
#endif
        // The rows the SIMD steps did not cover, one element per step.
        for (; i < rows; ++i) {
            tile.row_ptr[i] = cur;
            for (std::int64_t j = 0; j < width; ++j) {
                float v = planes[j * rows + i];
                vals[cur] = v;
                cols[cur] = static_cast<std::int32_t>(j);
                cur += (!masks || masks[j * rows + i] != 0) & (v != 0.0f);
            }
        }
        tile.row_ptr[rows] = cur;
        SPG_ASSERT(cur == nnz);
        tile.values.resize(nnz);
        tile.cols_idx.resize(nnz);
    }
}

void
CtCsrMatrix::toDense(float *dense) const
{
    std::fill(dense, dense + rows_ * cols_, 0.0f);
    for (std::int64_t t = 0; t < tileCount(); ++t) {
        const CsrMatrix &tile_m = tiles_[t];
        std::int64_t c0 = tileColOffset(t);
        const auto &vals = tile_m.vals();
        const auto &cidx = tile_m.colIdx();
        const auto &rptr = tile_m.rowPtr();
        for (std::int64_t i = 0; i < rows_; ++i) {
            for (std::int64_t p = rptr[i]; p < rptr[i + 1]; ++p)
                dense[i * cols_ + c0 + cidx[p]] = vals[p];
        }
    }
}

std::int64_t
CtCsrMatrix::nnz() const
{
    std::int64_t total = 0;
    for (const auto &t : tiles_)
        total += t.nnz();
    return total;
}

} // namespace spg
