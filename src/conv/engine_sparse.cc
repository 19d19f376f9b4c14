#include "conv/engine_sparse.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#define SPG_SPARSE_AVX512 1
#endif

#include "conv/scratch.hh"
#include "obs/trace.hh"
#include "sparse/csr.hh"
#include "sparse/sparse_plan.hh"
#include "tensor/layout.hh"
#include "util/logging.hh"

namespace spg {

namespace {

/** Default CT-CSR feature tile: big enough to amortize the tile walk,
 *  small enough that the W' rows one tile touches stay L2-resident. */
constexpr std::int64_t kDefaultFeatureTile = 64;

/** Floats per vector; kernel rows are padded to whole vectors. */
constexpr std::int64_t kRowLanes = 16;

/** Most vectors one register-blocked pass over a pixel keeps live
 *  (AVX-512 has 32; the rest hold the broadcast error and a temp). */
constexpr int kMaxBlock = 24;

/**
 * Per-call replay geometry, shared read-only by the workers.
 *
 * One output pixel touches, in each of the fy input rows under it, the
 * len = fx * nc contiguous (kx, c) floats of a channel-fastest row —
 * the same (kx, c) order as a kernel row of W'[f][ky][r]. The pixel's
 * fy rows split into vecs vectors each; accumulator t = ky * vecs + v
 * covers row ky, floats [16 v, 16 v + 16).
 */
struct RowReplay
{
    explicit RowReplay(const ConvSpec &spec)
        : len(spec.fx * spec.nc),
          vecs((len + kRowLanes - 1) / kRowLanes),
          pitch(vecs * kRowLanes),
          feature(spec.fy * pitch),
          accs(spec.fy * vecs),
          offset(static_cast<std::size_t>(accs)),
          mask(static_cast<std::size_t>(accs))
    {
        // Split the accumulators into as few passes as fit in the
        // registers, evenly, so no pass runs nearly empty.
        std::int64_t passes = (accs + kMaxBlock - 1) / kMaxBlock;
        block = (accs + passes - 1) / passes;
        std::uint16_t tail =
            len % kRowLanes
                ? static_cast<std::uint16_t>((1u << (len % kRowLanes)) - 1)
                : 0xFFFF;
        for (std::int64_t t = 0; t < accs; ++t) {
            std::int64_t ky = t / vecs, v = t % vecs;
            offset[t] = ky * spec.nx * spec.nc + v * kRowLanes;
            mask[t] = v == vecs - 1 ? tail : 0xFFFF;
        }
    }

    std::int64_t len;      ///< live floats of one kernel row
    std::int64_t vecs;     ///< vectors per kernel row
    std::int64_t pitch;    ///< padded kernel row, vecs * kRowLanes
    std::int64_t feature;  ///< one feature's fy padded rows
    std::int64_t accs;     ///< vectors per pixel, fy * vecs
    std::int64_t block;    ///< vectors per register-blocked pass
    /** Accumulator t's offset from the pixel's first touched float. */
    std::vector<std::int64_t> offset;
    /** Accumulator t's live lanes: all 16 except a row's last vector. */
    std::vector<std::uint16_t> mask;
};

/** One CT-CSR row (output pixel) replayed for BP-data. */
struct DataPixel
{
    const float *vals;         ///< non-zero errors, CSR order
    const std::int32_t *cols;  ///< their tile-local features
    std::int64_t nnz;
    float *ei;                 ///< first touched staging float
    const float *w;            ///< W' of the tile's first feature
};

/** One CT-CSR row (output pixel) replayed for BP-weights. */
struct WeightsPixel
{
    const float *vals;
    const std::int32_t *cols;
    std::int64_t nnz;
    const float *in;  ///< first touched input float
    float *dw;        ///< dW' of the tile's first feature
};

#if SPG_SPARSE_AVX512

/**
 * BP-data, accumulators [t0, t0 + B) of one pixel: load the
 * destination vectors once, apply every non-zero with one FMA per
 * vector in CSR order, store once. Only a row's last vector is masked,
 * and only at the load and the store: a masked store does not forward
 * to a later overlapping load, so a masked read-modify-write per
 * non-zero would stall on every one. The W' pad lanes are zero and
 * those accumulator lanes are never stored.
 */
template <int B>
void
dataBlock(const RowReplay &rr, const DataPixel &px, std::int64_t t0)
{
    __m512 acc[B];
    for (int i = 0; i < B; ++i) {
        const float *d = px.ei + rr.offset[t0 + i];
        std::uint16_t m = rr.mask[t0 + i];
        acc[i] = m == 0xFFFF ? _mm512_loadu_ps(d)
                             : _mm512_maskz_loadu_ps(m, d);
    }
    const float *w = px.w + t0 * kRowLanes;
    for (std::int64_t p = 0; p < px.nnz; ++p) {
        __m512 e = _mm512_set1_ps(px.vals[p]);
        const float *wf = w + px.cols[p] * rr.feature;
        for (int i = 0; i < B; ++i)
            acc[i] = _mm512_fmadd_ps(e, _mm512_loadu_ps(wf + i * kRowLanes),
                                     acc[i]);
    }
    for (int i = 0; i < B; ++i) {
        float *d = px.ei + rr.offset[t0 + i];
        std::uint16_t m = rr.mask[t0 + i];
        if (m == 0xFFFF)
            _mm512_storeu_ps(d, acc[i]);
        else
            _mm512_mask_storeu_ps(d, m, acc[i]);
    }
}

/**
 * BP-weights, vectors [t0, t0 + B) of one pixel: load the input
 * vectors once with zero tail lanes, then every non-zero does one
 * full-width FMA read-modify-write per vector of its dW'[f] rows. The
 * pad lanes it writes are dropped when [f][c][ky][kx] is restored.
 */
template <int B>
void
weightsBlock(const RowReplay &rr, const WeightsPixel &px, std::int64_t t0)
{
    __m512 x[B];
    for (int i = 0; i < B; ++i) {
        const float *s = px.in + rr.offset[t0 + i];
        std::uint16_t m = rr.mask[t0 + i];
        x[i] = m == 0xFFFF ? _mm512_loadu_ps(s)
                           : _mm512_maskz_loadu_ps(m, s);
    }
    float *dw = px.dw + t0 * kRowLanes;
    for (std::int64_t p = 0; p < px.nnz; ++p) {
        __m512 e = _mm512_set1_ps(px.vals[p]);
        float *d = dw + px.cols[p] * rr.feature;
        for (int i = 0; i < B; ++i)
            _mm512_storeu_ps(d + i * kRowLanes,
                             _mm512_fmadd_ps(e, x[i],
                                             _mm512_loadu_ps(
                                                 d + i * kRowLanes)));
    }
}

template <std::size_t... I>
constexpr auto
dataBlocks(std::index_sequence<I...>)
{
    return std::array{&dataBlock<static_cast<int>(I) + 1>...};
}

template <std::size_t... I>
constexpr auto
weightsBlocks(std::index_sequence<I...>)
{
    return std::array{&weightsBlock<static_cast<int>(I) + 1>...};
}

/** Pass kernels by block size - 1. */
constexpr auto kDataBlocks =
    dataBlocks(std::make_index_sequence<kMaxBlock>{});
constexpr auto kWeightsBlocks =
    weightsBlocks(std::make_index_sequence<kMaxBlock>{});

void
replayPixel(const RowReplay &rr, const DataPixel &px)
{
    for (std::int64_t t0 = 0; t0 < rr.accs; t0 += rr.block)
        kDataBlocks[std::min(rr.block, rr.accs - t0) - 1](rr, px, t0);
}

void
replayPixel(const RowReplay &rr, const WeightsPixel &px)
{
    for (std::int64_t t0 = 0; t0 < rr.accs; t0 += rr.block)
        kWeightsBlocks[std::min(rr.block, rr.accs - t0) - 1](rr, px, t0);
}

#else // !SPG_SPARSE_AVX512

/** Plain BP-data replay over the same rows in the same order: every
 *  destination float takes its non-zeros in CSR order, one fma each. */
void
replayPixel(const RowReplay &rr, const DataPixel &px)
{
    for (std::int64_t p = 0; p < px.nnz; ++p) {
        float e = px.vals[p];
        const float *wf = px.w + px.cols[p] * rr.feature;
        for (std::int64_t t = 0; t < rr.accs; t += rr.vecs) {
            float *d = px.ei + rr.offset[t];
            const float *wr = wf + t * kRowLanes;
            for (std::int64_t r = 0; r < rr.len; ++r)
                d[r] = std::fma(e, wr[r], d[r]);
        }
    }
}

/** Plain BP-weights replay; the dW' pad lanes stay untouched. */
void
replayPixel(const RowReplay &rr, const WeightsPixel &px)
{
    for (std::int64_t p = 0; p < px.nnz; ++p) {
        float e = px.vals[p];
        float *df = px.dw + px.cols[p] * rr.feature;
        for (std::int64_t t = 0; t < rr.accs; t += rr.vecs) {
            const float *s = px.in + rr.offset[t];
            float *d = df + t * kRowLanes;
            for (std::int64_t r = 0; r < rr.len; ++r)
                d[r] = std::fma(e, s[r], d[r]);
        }
    }
}

#endif // SPG_SPARSE_AVX512

/**
 * Walk one image's CT-CSR rows in (tile, pixel) order — the order
 * every destination float takes its contributions in — and hand each
 * non-empty row to fn(f0, first, vals, cols, nnz): the tile's first
 * feature and the channel-fastest offset of the pixel's first touched
 * input float. The same non-zero list serves all fy * fx kernel
 * positions; only the pointers shift (Eq. 15).
 */
template <typename Fn>
void
forEachPixel(const ConvSpec &spec, const CtCsrMatrix &ct, Fn &&fn)
{
    std::int64_t ox = spec.outX();
    for (std::int64_t t = 0; t < ct.tileCount(); ++t) {
        const CsrMatrix &tile = ct.tile(t);
        const float *vals = tile.vals().data();
        const std::int32_t *cols = tile.colIdx().data();
        const auto &rptr = tile.rowPtr();
        for (std::int64_t row = 0; row < tile.rows(); ++row) {
            std::int64_t begin = rptr[row], end = rptr[row + 1];
            if (begin == end)
                continue;
            std::int64_t yp = row / ox;
            std::int64_t xp = row % ox;
            fn(ct.tileColOffset(t),
               (yp * spec.sy * spec.nx + xp * spec.sx) * spec.nc,
               vals + begin, cols + begin, end - begin);
        }
    }
}

} // namespace

std::int64_t
SparseBpEngine::effectiveFeatureTile(std::int64_t nf) const
{
    if (featureTile > 0)
        return std::min(featureTile, nf);
    return std::min(kDefaultFeatureTile, nf);
}

void
SparseBpEngine::backwardData(const ConvSpec &spec, const Tensor &eo,
                             const Tensor &weights, Tensor &ei,
                             ThreadPool &pool, const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "sparse BP-data");
    checkBackwardShapes(spec, eo, weights, ei);
    std::int64_t batch = eo.shape()[0];
    std::int64_t oy = spec.outY(), ox = spec.outX();
    std::int64_t spatial_in = spec.ny * spec.nx;
    std::int64_t tile_w = effectiveFeatureTile(spec.nf);

    // Encode-once: fused CHW -> CT-CSR, shared with backwardWeights.
    // A fused ReLU mask gates liveness inside the same encode sweep.
    std::shared_ptr<const SparsePlan> plan =
        SparsePlanCache::global().get(eo.data(), batch, spec.nf, oy, ox,
                                      tile_w, pool, mask.mask);

    // Weights as padded kernel rows W'[f][ky][r]; once per call.
    const RowReplay rr(spec);
    Tensor wrows =
        Tensor::uninitialized(Shape{spec.nf, spec.fy, rr.pitch});
    weightsToKernelRows(weights.data(), spec.nf, spec.nc, spec.fy,
                        spec.fx, rr.pitch, wrows.data());

    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        // EI channel-fastest staging, zeroed.
        float *ei_t = ScratchArena::forThread().get(
            kSlotLayoutC, static_cast<std::size_t>(spatial_in) * spec.nc);
        std::memset(ei_t, 0,
                    sizeof(float) * spatial_in * spec.nc);

        forEachPixel(spec, plan->images[b],
                     [&](std::int64_t f0, std::int64_t first,
                         const float *vals, const std::int32_t *cols,
                         std::int64_t nnz) {
                         replayPixel(rr, DataPixel{vals, cols, nnz,
                                                   ei_t + first,
                                                   wrows.data() +
                                                       f0 * rr.feature});
                     });

        hwcToChw(ei_t, spec.ny, spec.nx, spec.nc,
                 ei.data() + b * spec.inputElems());
    }, /*grain=*/1);
}

void
SparseBpEngine::backwardWeights(const ConvSpec &spec, const Tensor &eo,
                                const Tensor &in, Tensor &dweights,
                                ThreadPool &pool, const BpMask &mask) const
{
    SPG_TRACE_SCOPE("kernel", "sparse BP-weights");
    std::int64_t batch = eo.shape()[0];
    std::int64_t oy = spec.outY(), ox = spec.outX();
    std::int64_t spatial_in = spec.ny * spec.nx;
    std::int64_t tile_w = effectiveFeatureTile(spec.nf);

    // Hits when backwardData already encoded this minibatch.
    std::shared_ptr<const SparsePlan> plan =
        SparsePlanCache::global().get(eo.data(), batch, spec.nf, oy, ox,
                                      tile_w, pool, mask.mask);

    // Per-image dW' in padded kernel rows [f][ky][r], then restore
    // [f][c][ky][kx]. The chunking is sized by the unpadded gradient,
    // so the padding never moves the summation order.
    const RowReplay rr(spec);
    Tensor dw_rows =
        Tensor::uninitialized(Shape{spec.nf, spec.fy, rr.pitch});
    reducer_.run(pool, batch, dw_rows.size(),
                 [&](std::int64_t b, float *dw) {
                     // Input channel-fastest: I'[(y,x)][c].
                     float *in_t = ScratchArena::forThread().get(
                         kSlotLayoutB,
                         static_cast<std::size_t>(spatial_in) * spec.nc);
                     chwToHwc(in.data() + b * spec.inputElems(), spec.nc,
                              spec.ny, spec.nx, in_t);
                     forEachPixel(
                         spec, plan->images[b],
                         [&](std::int64_t f0, std::int64_t first,
                             const float *vals, const std::int32_t *cols,
                             std::int64_t nnz) {
                             replayPixel(rr,
                                         WeightsPixel{vals, cols, nnz,
                                                      in_t + first,
                                                      dw + f0 * rr.feature});
                         });
                 },
                 dw_rows.data(), spec.weightElems());
    weightsFromKernelRows(dw_rows.data(), spec.nf, spec.nc, spec.fy,
                          spec.fx, rr.pitch, dweights.data());
}

} // namespace spg
