/**
 * @file
 * Register-tile basic blocks for the direct NCHWc convolution engine.
 *
 * Following the "Anatomy of High-Performance Deep Learning
 * Convolutions" direct-convolution recipe, these blocks consume
 * channel-blocked operands (block width kChannelBlock = 8 floats = one
 * AVX2 vector) and keep a (width-tile x accumulator-row) register tile
 * live across the full reduction — no im2col, no packing pass in the
 * inner loop. Template parameter RW is the width tile (output pixels
 * held in registers at once); the accumulator rows are fixed by the
 * channel block (8 floats = 2 ymm of doubles for FP, 1 ymm of floats
 * for BP).
 *
 * Bit-for-bit contract with conv_ref.cc (the test oracle):
 *
 *  - FP: the reference accumulates in DOUBLE in (c, ky, kx) ascending
 *    order and rounds once to float. float*float products are exact in
 *    double (24+24 < 53 mantissa bits), so a double FMA chain in the
 *    same order is bitwise identical to the reference's
 *    multiply-then-add chain, and _mm256_cvtpd_ps performs the same
 *    final round-to-nearest as the reference's (float) cast. The
 *    zero-padded tail lanes append exact +-0 terms that cannot perturb
 *    the sum.
 *  - BP-data / BP-weights: the reference accumulates in FLOAT and the
 *    compiler contracts each `acc += e * w` into one FMA, so these
 *    blocks use float FMAs, one per reference contribution, in the
 *    exact per-element reference order: BP-data gathers (f asc,
 *    ky desc, kx desc) — the scatter order (f, oy asc, ox asc) seen
 *    from a fixed input pixel — and BP-weights accumulates (b, oy, ox)
 *    ascending with partial sums spilled through float memory (exact).
 *    The reference's `e == 0` skip is arithmetic-neutral: adding the
 *    +-0 product of a zero error term never changes a float
 *    accumulator under round-to-nearest (an accumulator can never
 *    become -0 by accumulation from +0).
 */

#ifndef SPG_CONV_DIRECT_BLOCK_HH
#define SPG_CONV_DIRECT_BLOCK_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace spg {

#if defined(__AVX2__) && defined(__FMA__)

/**
 * FP: compute out_row[x0 .. x0+RW) x 8 features of one blocked output
 * row. Accumulates in double (2 ymm per pixel) over (c, ky, kx)
 * ascending, then rounds once to float — bitwise the reference sum.
 *
 * @param in_img Blocked input image [cBlocks][ny][nx][8].
 * @param wblk KCRSck weights for this feature block:
 *        [cBlocks][fy][fx][8ci][8ko].
 * @param out_row Blocked output row base [ox][8].
 */
template <int RW>
inline void
directFpTile(const float *in_img, const float *wblk,
             std::int64_t c_blocks, std::int64_t ny, std::int64_t nx,
             std::int64_t fy, std::int64_t fx, std::int64_t sy,
             std::int64_t sx, std::int64_t y, std::int64_t x0,
             float *out_row)
{
    __m256d acc[RW][2];
    for (int p = 0; p < RW; ++p)
        acc[p][0] = acc[p][1] = _mm256_setzero_pd();

    const std::int64_t in_plane = ny * nx * 8;
    const std::int64_t w_block = fy * fx * 64;
    for (std::int64_t cb = 0; cb < c_blocks; ++cb) {
        const float *ic = in_img + cb * in_plane;
        const float *wc = wblk + cb * w_block;
        for (int ci = 0; ci < 8; ++ci) {
            for (std::int64_t ky = 0; ky < fy; ++ky) {
                const float *irow = ic + (y * sy + ky) * nx * 8 + ci;
                const float *wrow = wc + ky * fx * 64 + ci * 8;
                for (std::int64_t kx = 0; kx < fx; ++kx) {
                    __m256 wv = _mm256_loadu_ps(wrow + kx * 64);
                    __m256d wlo =
                        _mm256_cvtps_pd(_mm256_castps256_ps128(wv));
                    __m256d whi =
                        _mm256_cvtps_pd(_mm256_extractf128_ps(wv, 1));
                    for (int p = 0; p < RW; ++p) {
                        __m256d xv = _mm256_cvtps_pd(_mm_broadcast_ss(
                            irow + ((x0 + p) * sx + kx) * 8));
                        acc[p][0] =
                            _mm256_fmadd_pd(xv, wlo, acc[p][0]);
                        acc[p][1] =
                            _mm256_fmadd_pd(xv, whi, acc[p][1]);
                    }
                }
            }
        }
    }

    for (int p = 0; p < RW; ++p) {
        __m128 lo = _mm256_cvtpd_ps(acc[p][0]);
        __m128 hi = _mm256_cvtpd_ps(acc[p][1]);
        _mm256_storeu_ps(out_row + (x0 + p) * 8,
                         _mm256_set_m128(hi, lo));
    }
}

/**
 * BP-data, stride-1 interior tile: ei_row[ix0 .. ix0+RW) x 8 input
 * channels, every tap in [ky_lo, ky_hi] x [0, fx) valid for all RW
 * pixels. Gathers in (f asc, ky desc, kx desc) = the reference
 * scatter order seen from a fixed input pixel.
 *
 * @param eo_img Output errors for one image, NCHW [nf][oy][ox]
 *        (already masked when the fused ReLU mask is active).
 * @param wcb BP-gather weights for this channel block:
 *        [nf][fy][fx][8ci].
 * @param ei_row Blocked input-error row base [nx][8].
 */
template <int RW>
inline void
directBpdTile(const float *eo_img, const float *wcb, std::int64_t nf,
              std::int64_t oy, std::int64_t ox, std::int64_t fy,
              std::int64_t fx, std::int64_t iy, std::int64_t ix0,
              std::int64_t ky_lo, std::int64_t ky_hi, float *ei_row)
{
    __m256 acc[RW];
    for (int p = 0; p < RW; ++p)
        acc[p] = _mm256_setzero_ps();

    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 8;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wcb + f * w_plane;
        for (std::int64_t ky = ky_hi; ky >= ky_lo; --ky) {
            const float *eor = eop + (iy - ky) * ox + ix0;
            const float *wr = wf + ky * fx * 8;
            for (std::int64_t kx = fx - 1; kx >= 0; --kx) {
                __m256 wv = _mm256_loadu_ps(wr + kx * 8);
                for (int p = 0; p < RW; ++p) {
                    __m256 ev = _mm256_broadcast_ss(eor + p - kx);
                    acc[p] = _mm256_fmadd_ps(ev, wv, acc[p]);
                }
            }
        }
    }

    for (int p = 0; p < RW; ++p)
        _mm256_storeu_ps(ei_row + (ix0 + p) * 8, acc[p]);
}

/**
 * BP-data, one pixel with explicit tap bounds (stride-1 border
 * columns): like directBpdTile<1> but kx restricted to
 * [kx_lo, kx_hi]. Zero errors are skipped like the reference (the
 * skip is arithmetic-neutral; it only saves work).
 */
inline void
directBpdPixel(const float *eo_img, const float *wcb, std::int64_t nf,
               std::int64_t oy, std::int64_t ox, std::int64_t fy,
               std::int64_t fx, std::int64_t iy, std::int64_t ix,
               std::int64_t ky_lo, std::int64_t ky_hi,
               std::int64_t kx_lo, std::int64_t kx_hi, float *ei_row)
{
    __m256 acc = _mm256_setzero_ps();
    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 8;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wcb + f * w_plane;
        for (std::int64_t ky = ky_hi; ky >= ky_lo; --ky) {
            const float *eor = eop + (iy - ky) * ox;
            const float *wr = wf + ky * fx * 8;
            for (std::int64_t kx = kx_hi; kx >= kx_lo; --kx) {
                float e = eor[ix - kx];
                if (e != 0.0f)
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(e),
                                          _mm256_loadu_ps(wr + kx * 8),
                                          acc);
            }
        }
    }
    _mm256_storeu_ps(ei_row + ix * 8, acc);
}

/**
 * BP-data, one pixel, arbitrary stride: iterates the valid (oy, ox)
 * range ascending — exactly the reference scatter order.
 */
inline void
directBpdPixelStrided(const float *eo_img, const float *wcb,
                      std::int64_t nf, std::int64_t oy, std::int64_t ox,
                      std::int64_t fy, std::int64_t fx, std::int64_t sy,
                      std::int64_t sx, std::int64_t iy, std::int64_t ix,
                      float *ei_row)
{
    __m256 acc = _mm256_setzero_ps();
    // oy range with iy - oyy*sy in [0, fy), ascending; same for ox.
    std::int64_t oy_lo = iy >= fy ? (iy - fy) / sy + 1 : 0;
    std::int64_t oy_hi = iy / sy < oy - 1 ? iy / sy : oy - 1;
    std::int64_t ox_lo = ix >= fx ? (ix - fx) / sx + 1 : 0;
    std::int64_t ox_hi = ix / sx < ox - 1 ? ix / sx : ox - 1;
    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 8;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wcb + f * w_plane;
        for (std::int64_t oyy = oy_lo; oyy <= oy_hi; ++oyy) {
            const float *eor = eop + oyy * ox;
            const float *wr = wf + (iy - oyy * sy) * fx * 8;
            for (std::int64_t oxx = ox_lo; oxx <= ox_hi; ++oxx) {
                float e = eor[oxx];
                if (e != 0.0f)
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(e),
                        _mm256_loadu_ps(wr + (ix - oxx * sx) * 8), acc);
            }
        }
    }
    _mm256_storeu_ps(ei_row + ix * 8, acc);
}

/**
 * BP-weights: accumulate one image's contributions for one
 * (feature-block, channel-block, ky) task into the task's float
 * gradient buffer dwbuf[fx][8ci][8ko]. Walks (oy asc, ox asc) with
 * the ox-chain held in registers per (kx, ci-chunk) and spilled
 * through float memory between rows — both exact, so the per-element
 * contribution order is the reference's (b, oy, ox).
 *
 * @param eo_img Blocked (and mask-staged) errors for this image and
 *        feature block: [oy][ox][8ko].
 * @param in_base Input base for this image and channel block such
 *        that lane ci of input column ix on input row iy lives at
 *        in_base + iy * in_row_stride + ix * in_x_stride +
 *        ci * in_c_stride (the engine passes the plain NCHW
 *        strides nx, 1 and ny * nx).
 * @param clive Live channel lanes in this block (tail blocks < 8).
 */
template <int RC>
inline void
directBpwRow(const float *eo_img, const float *in_base,
             std::int64_t in_row_stride, std::int64_t in_x_stride,
             std::int64_t in_c_stride, std::int64_t oy, std::int64_t ox,
             std::int64_t fx, std::int64_t sy, std::int64_t sx,
             std::int64_t ky, std::int64_t clive, float *dwbuf)
{
    for (std::int64_t oyy = 0; oyy < oy; ++oyy) {
        const float *eor = eo_img + oyy * ox * 8;
        const float *irow = in_base + (oyy * sy + ky) * in_row_stride;
        for (std::int64_t kx = 0; kx < fx; ++kx) {
            const float *icol = irow + kx * in_x_stride;
            std::int64_t ci = 0;
            for (; ci + RC <= clive; ci += RC) {
                float *d = dwbuf + (kx * 8 + ci) * 8;
                __m256 acc[RC];
                for (int j = 0; j < RC; ++j)
                    acc[j] = _mm256_loadu_ps(d + j * 8);
                const float *ic = icol + ci * in_c_stride;
                for (std::int64_t oxx = 0; oxx < ox; ++oxx) {
                    __m256 ev = _mm256_loadu_ps(eor + oxx * 8);
                    for (int j = 0; j < RC; ++j) {
                        __m256 xv = _mm256_broadcast_ss(
                            ic + oxx * sx * in_x_stride +
                            j * in_c_stride);
                        acc[j] = _mm256_fmadd_ps(xv, ev, acc[j]);
                    }
                }
                for (int j = 0; j < RC; ++j)
                    _mm256_storeu_ps(d + j * 8, acc[j]);
            }
            for (; ci < clive; ++ci) {
                float *d = dwbuf + (kx * 8 + ci) * 8;
                __m256 acc = _mm256_loadu_ps(d);
                const float *ic = icol + ci * in_c_stride;
                for (std::int64_t oxx = 0; oxx < ox; ++oxx)
                    acc = _mm256_fmadd_ps(
                        _mm256_broadcast_ss(ic +
                                            oxx * sx * in_x_stride),
                        _mm256_loadu_ps(eor + oxx * 8), acc);
                _mm256_storeu_ps(d, acc);
            }
        }
    }
}

#endif // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define SPG_DIRECT_AVX512 1

/**
 * AVX-512 widenings of the blocks above. The per-element contribution
 * ORDER and operation sequence are identical to the 256-bit blocks
 * (and hence to the reference): a wider vector only groups more
 * independent output elements per instruction, which cannot perturb
 * any individual sum.
 *
 *  - FP holds one channel block as a full zmm of doubles (8 lanes)
 *    and consumes pre-converted double operands, so the input
 *    broadcast folds into the FMA as a {1to8} memory operand
 *    (float -> double conversion is exact).
 *  - BP-data pairs two input-channel blocks per zmm (16 float lanes)
 *    against pair-packed weights [nf][fy][fx][16].
 *  - BP-weights pairs two feature blocks per zmm against pair-staged
 *    errors [oy][ox][16].
 */

/** FP over double operands: out_row[x0 .. x0+RW) x 8 features.
 *  in_img_d is the blocked input converted to double
 *  [cBlocks][ny][nx][8]; wblk_d is KCRSck converted to double
 *  [cBlocks][fy][fx][8ci][8ko] (64-byte aligned). */
template <int RW>
inline void
directFpTileZ(const double *in_img_d, const double *wblk_d,
              std::int64_t c_blocks, std::int64_t ny, std::int64_t nx,
              std::int64_t fy, std::int64_t fx, std::int64_t sy,
              std::int64_t sx, std::int64_t y, std::int64_t x0,
              float *out_row)
{
    __m512d acc[RW];
    for (int p = 0; p < RW; ++p)
        acc[p] = _mm512_setzero_pd();

    const std::int64_t in_plane = ny * nx * 8;
    const std::int64_t w_block = fy * fx * 64;
    for (std::int64_t cb = 0; cb < c_blocks; ++cb) {
        const double *ic = in_img_d + cb * in_plane;
        const double *wc = wblk_d + cb * w_block;
        for (int ci = 0; ci < 8; ++ci) {
            for (std::int64_t ky = 0; ky < fy; ++ky) {
                const double *irow = ic + (y * sy + ky) * nx * 8 + ci;
                const double *wrow = wc + ky * fx * 64 + ci * 8;
                for (std::int64_t kx = 0; kx < fx; ++kx) {
                    __m512d wv = _mm512_load_pd(wrow + kx * 64);
                    for (int p = 0; p < RW; ++p)
                        acc[p] = _mm512_fmadd_pd(
                            _mm512_set1_pd(
                                irow[((x0 + p) * sx + kx) * 8]),
                            wv, acc[p]);
                }
            }
        }
    }

    for (int p = 0; p < RW; ++p)
        _mm256_storeu_ps(out_row + (x0 + p) * 8,
                         _mm512_cvtpd_ps(acc[p]));
}

/** directFpTileZ specialized for sx == 1: lane p reads the input at a
 *  compile-time displacement (p * 8 doubles), so every FMA folds its
 *  broadcast without per-lane address arithmetic stealing ALU ports
 *  from the FMA pipes. */
template <int RW>
inline void
directFpTileZ1(const double *in_img_d, const double *wblk_d,
               std::int64_t c_blocks, std::int64_t ny, std::int64_t nx,
               std::int64_t fy, std::int64_t fx, std::int64_t sy,
               std::int64_t y, std::int64_t x0, float *out_row)
{
    __m512d acc[RW];
    for (int p = 0; p < RW; ++p)
        acc[p] = _mm512_setzero_pd();

    const std::int64_t in_plane = ny * nx * 8;
    const std::int64_t w_block = fy * fx * 64;
    for (std::int64_t cb = 0; cb < c_blocks; ++cb) {
        const double *ic = in_img_d + cb * in_plane;
        const double *wc = wblk_d + cb * w_block;
        for (int ci = 0; ci < 8; ++ci) {
            for (std::int64_t ky = 0; ky < fy; ++ky) {
                const double *irow =
                    ic + ((y * sy + ky) * nx + x0) * 8 + ci;
                const double *wrow = wc + ky * fx * 64 + ci * 8;
                for (std::int64_t kx = 0; kx < fx; ++kx) {
                    __m512d wv = _mm512_load_pd(wrow + kx * 64);
                    const double *ip = irow + kx * 8;
                    for (int p = 0; p < RW; ++p)
                        acc[p] = _mm512_fmadd_pd(
                            _mm512_set1_pd(ip[p * 8]), wv, acc[p]);
                }
            }
        }
    }

    for (int p = 0; p < RW; ++p)
        _mm256_storeu_ps(out_row + (x0 + p) * 8,
                         _mm512_cvtpd_ps(acc[p]));
}

/** Balanced stride-1 FP row: covers output columns [0, oxN) with
 *  near-equal register tiles no wider than 14 (15+ accumulators spill
 *  the sliding broadcast window) and as wide as the split allows, so
 *  no pixel rides a latency-bound narrow tail tile. Tile width only
 *  groups independent output pixels — each pixel's FMA chain order is
 *  unchanged, so the split is bit-for-bit neutral. */
inline void
directFpRowZ1(const double *in_img_d, const double *wblk_d,
              std::int64_t c_blocks, std::int64_t ny, std::int64_t nx,
              std::int64_t fy, std::int64_t fx, std::int64_t sy,
              std::int64_t y, std::int64_t oxN, float *out_row)
{
    const std::int64_t n = (oxN + 13) / 14;
    const std::int64_t base = oxN / n, extra = oxN % n;
    std::int64_t x = 0;
    for (std::int64_t t = 0; t < n; ++t) {
        const std::int64_t w = base + (t < extra ? 1 : 0);
#define SPG_FP_TILE_CASE(W)                                              \
    case W:                                                              \
        directFpTileZ1<W>(in_img_d, wblk_d, c_blocks, ny, nx, fy, fx,    \
                          sy, y, x, out_row);                            \
        break;
        switch (w) {
            SPG_FP_TILE_CASE(14)
            SPG_FP_TILE_CASE(13)
            SPG_FP_TILE_CASE(12)
            SPG_FP_TILE_CASE(11)
            SPG_FP_TILE_CASE(10)
            SPG_FP_TILE_CASE(9)
            SPG_FP_TILE_CASE(8)
            SPG_FP_TILE_CASE(7)
            SPG_FP_TILE_CASE(6)
            SPG_FP_TILE_CASE(5)
            SPG_FP_TILE_CASE(4)
            SPG_FP_TILE_CASE(3)
            SPG_FP_TILE_CASE(2)
            SPG_FP_TILE_CASE(1)
        }
#undef SPG_FP_TILE_CASE
        x += w;
    }
}

/** BP-data interior tile over a PAIR of channel blocks: lanes 0-7 are
 *  block cb, lanes 8-15 block cb+1. wpair is the pair-packed gather
 *  layout [nf][fy][fx][16] (64-byte aligned). */
template <int RW>
inline void
directBpdTileZ(const float *eo_img, const float *wpair, std::int64_t nf,
               std::int64_t oy, std::int64_t ox, std::int64_t fy,
               std::int64_t fx, std::int64_t iy, std::int64_t ix0,
               std::int64_t ky_lo, std::int64_t ky_hi, float *ei_row0,
               float *ei_row1)
{
    __m512 acc[RW];
    for (int p = 0; p < RW; ++p)
        acc[p] = _mm512_setzero_ps();

    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 16;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wpair + f * w_plane;
        for (std::int64_t ky = ky_hi; ky >= ky_lo; --ky) {
            const float *eor = eop + (iy - ky) * ox + ix0;
            const float *wr = wf + ky * fx * 16;
            for (std::int64_t kx = fx - 1; kx >= 0; --kx) {
                __m512 wv = _mm512_load_ps(wr + kx * 16);
                for (int p = 0; p < RW; ++p)
                    acc[p] = _mm512_fmadd_ps(
                        _mm512_set1_ps(eor[p - kx]), wv, acc[p]);
            }
        }
    }

    for (int p = 0; p < RW; ++p) {
        _mm256_storeu_ps(ei_row0 + (ix0 + p) * 8,
                         _mm512_castps512_ps256(acc[p]));
        _mm256_storeu_ps(ei_row1 + (ix0 + p) * 8,
                         _mm512_extractf32x8_ps(acc[p], 1));
    }
}

/** Balanced BP-data interior span [x0, x1): same near-equal register
 *  tile split as directFpRowZ1, capped at width 14, bit-for-bit
 *  neutral for the same reason. */
inline void
directBpdSpanZ(const float *eo_img, const float *wpair, std::int64_t nf,
               std::int64_t oy, std::int64_t ox, std::int64_t fy,
               std::int64_t fx, std::int64_t iy, std::int64_t x0,
               std::int64_t x1, std::int64_t ky_lo, std::int64_t ky_hi,
               float *ei_row0, float *ei_row1)
{
    const std::int64_t span = x1 - x0;
    if (span <= 0)
        return;
    const std::int64_t n = (span + 13) / 14;
    const std::int64_t base = span / n, extra = span % n;
    std::int64_t x = x0;
    for (std::int64_t t = 0; t < n; ++t) {
        const std::int64_t w = base + (t < extra ? 1 : 0);
#define SPG_BPD_TILE_CASE(W)                                             \
    case W:                                                              \
        directBpdTileZ<W>(eo_img, wpair, nf, oy, ox, fy, fx, iy, x,      \
                          ky_lo, ky_hi, ei_row0, ei_row1);               \
        break;
        switch (w) {
            SPG_BPD_TILE_CASE(14)
            SPG_BPD_TILE_CASE(13)
            SPG_BPD_TILE_CASE(12)
            SPG_BPD_TILE_CASE(11)
            SPG_BPD_TILE_CASE(10)
            SPG_BPD_TILE_CASE(9)
            SPG_BPD_TILE_CASE(8)
            SPG_BPD_TILE_CASE(7)
            SPG_BPD_TILE_CASE(6)
            SPG_BPD_TILE_CASE(5)
            SPG_BPD_TILE_CASE(4)
            SPG_BPD_TILE_CASE(3)
            SPG_BPD_TILE_CASE(2)
            SPG_BPD_TILE_CASE(1)
        }
#undef SPG_BPD_TILE_CASE
        x += w;
    }
}

/** BP-data border tile over a channel-block pair: input columns
 *  ix0 .. ix0+w (w <= 16), with the lane range clipped per tap to the
 *  valid output columns — a vectorized replacement for per-pixel
 *  border loops. Taps outside the clip are not part of any lane's
 *  reference sum, and surviving lanes still accumulate in (f asc,
 *  ky desc, kx desc) order. */
inline void
directBpdEdgeZ(const float *eo_img, const float *wpair, std::int64_t nf,
               std::int64_t oy, std::int64_t ox, std::int64_t fy,
               std::int64_t fx, std::int64_t iy, std::int64_t ix0,
               std::int64_t w, std::int64_t ky_lo, std::int64_t ky_hi,
               float *ei_row0, float *ei_row1)
{
    __m512 acc[16];
    for (std::int64_t p = 0; p < 16; ++p)
        acc[p] = _mm512_setzero_ps();

    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 16;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wpair + f * w_plane;
        for (std::int64_t ky = ky_hi; ky >= ky_lo; --ky) {
            const float *eor = eop + (iy - ky) * ox;
            const float *wr = wf + ky * fx * 16;
            for (std::int64_t kx = fx - 1; kx >= 0; --kx) {
                // Lane p covers input column ix0 + p; its output
                // column ix0 + p - kx must lie in [0, ox).
                const std::int64_t p_lo =
                    kx > ix0 ? kx - ix0 : 0;
                const std::int64_t p_hi =
                    w - 1 < ox - 1 + kx - ix0 ? w - 1
                                              : ox - 1 + kx - ix0;
                if (p_lo > p_hi)
                    continue;
                __m512 wv = _mm512_load_ps(wr + kx * 16);
                const float *e0 = eor + ix0 - kx;
                for (std::int64_t p = p_lo; p <= p_hi; ++p)
                    acc[p] = _mm512_fmadd_ps(_mm512_set1_ps(e0[p]), wv,
                                             acc[p]);
            }
        }
    }

    for (std::int64_t p = 0; p < w; ++p) {
        _mm256_storeu_ps(ei_row0 + (ix0 + p) * 8,
                         _mm512_castps512_ps256(acc[p]));
        _mm256_storeu_ps(ei_row1 + (ix0 + p) * 8,
                         _mm512_extractf32x8_ps(acc[p], 1));
    }
}

/** BP-data border pixel over a channel-block pair (explicit tap
 *  bounds, reference zero-skip). */
inline void
directBpdPixelZ(const float *eo_img, const float *wpair, std::int64_t nf,
                std::int64_t oy, std::int64_t ox, std::int64_t fy,
                std::int64_t fx, std::int64_t iy, std::int64_t ix,
                std::int64_t ky_lo, std::int64_t ky_hi,
                std::int64_t kx_lo, std::int64_t kx_hi, float *ei_row0,
                float *ei_row1)
{
    __m512 acc = _mm512_setzero_ps();
    const std::int64_t eo_plane = oy * ox;
    const std::int64_t w_plane = fy * fx * 16;
    for (std::int64_t f = 0; f < nf; ++f) {
        const float *eop = eo_img + f * eo_plane;
        const float *wf = wpair + f * w_plane;
        for (std::int64_t ky = ky_hi; ky >= ky_lo; --ky) {
            const float *eor = eop + (iy - ky) * ox;
            const float *wr = wf + ky * fx * 16;
            for (std::int64_t kx = kx_hi; kx >= kx_lo; --kx) {
                float e = eor[ix - kx];
                if (e != 0.0f)
                    acc = _mm512_fmadd_ps(
                        _mm512_set1_ps(e),
                        _mm512_load_ps(wr + kx * 16), acc);
            }
        }
    }
    _mm256_storeu_ps(ei_row0 + ix * 8, _mm512_castps512_ps256(acc));
    _mm256_storeu_ps(ei_row1 + ix * 8, _mm512_extractf32x8_ps(acc, 1));
}

/** BP-weights over a feature-block PAIR: eo_img is the pair-staged
 *  errors [oy][ox][16ko] and dwbuf is [fx][8ci][16ko] (both 64-byte
 *  aligned). Same (oy asc, ox asc) chain as directBpwRow. */
template <int RC>
inline void
directBpwRowZ(const float *eo_img, const float *in_base,
              std::int64_t in_row_stride, std::int64_t in_x_stride,
              std::int64_t in_c_stride, std::int64_t oy, std::int64_t ox,
              std::int64_t fx, std::int64_t sy, std::int64_t sx,
              std::int64_t ky, std::int64_t clive, float *dwbuf)
{
    for (std::int64_t oyy = 0; oyy < oy; ++oyy) {
        const float *eor = eo_img + oyy * ox * 16;
        const float *irow = in_base + (oyy * sy + ky) * in_row_stride;
        for (std::int64_t kx = 0; kx < fx; ++kx) {
            const float *icol = irow + kx * in_x_stride;
            std::int64_t ci = 0;
            for (; ci + RC <= clive; ci += RC) {
                float *d = dwbuf + (kx * 8 + ci) * 16;
                __m512 acc[RC];
                for (int j = 0; j < RC; ++j)
                    acc[j] = _mm512_load_ps(d + j * 16);
                const float *ic = icol + ci * in_c_stride;
                for (std::int64_t oxx = 0; oxx < ox; ++oxx) {
                    __m512 ev = _mm512_load_ps(eor + oxx * 16);
                    for (int j = 0; j < RC; ++j)
                        acc[j] = _mm512_fmadd_ps(
                            _mm512_set1_ps(
                                ic[oxx * sx * in_x_stride +
                                   j * in_c_stride]),
                            ev, acc[j]);
                }
                for (int j = 0; j < RC; ++j)
                    _mm512_store_ps(d + j * 16, acc[j]);
            }
            for (; ci < clive; ++ci) {
                float *d = dwbuf + (kx * 8 + ci) * 16;
                __m512 acc = _mm512_load_ps(d);
                const float *ic = icol + ci * in_c_stride;
                for (std::int64_t oxx = 0; oxx < ox; ++oxx)
                    acc = _mm512_fmadd_ps(
                        _mm512_set1_ps(ic[oxx * sx * in_x_stride]),
                        _mm512_load_ps(eor + oxx * 16), acc);
                _mm512_store_ps(d, acc);
            }
        }
    }
}

#endif // __AVX512F__ && __AVX512DQ__

} // namespace spg

#endif // SPG_CONV_DIRECT_BLOCK_HH
