#include "conv/engine_sparse.hh"

#include <algorithm>
#include <cstring>

#include "conv/scratch.hh"
#include "obs/trace.hh"
#include "sparse/csr.hh"
#include "sparse/sparse_mm.hh"
#include "sparse/sparse_plan.hh"
#include "tensor/layout.hh"
#include "util/logging.hh"

namespace spg {

namespace {

/** Default CT-CSR feature tile: big enough to amortize the tile walk,
 *  small enough that the weight band per (ky,kx) stays L2-resident. */
constexpr std::int64_t kDefaultFeatureTile = 64;

/**
 * Replay one image's non-zero error gradients through the
 * pointer-shifting loop for BP-data, accumulating into the
 * channel-fastest input-gradient staging buffer.
 *
 * The weight-row and destination base pointers are hoisted out of the
 * (ky, kx) loops — per non-zero only the feature offset varies — and
 * adjacent kx destinations are register-blocked in pairs via axpy2.
 * The two destinations of a pair are disjoint nc-length vectors and
 * each receives its non-zeros in the same (ascending p) order as the
 * unblocked loop, so results stay bit-for-bit identical.
 *
 * @param spec Layer geometry.
 * @param ct Error gradients as CT-CSR over the (OyOx) x Nf matrix.
 * @param wt Weights channel-fastest, [ky][kx][f][c].
 * @param ei_t Zeroed (Ny*Nx) x Nc channel-fastest staging buffer.
 */
void
replayDataImage(const ConvSpec &spec, const CtCsrMatrix &ct,
                const float *wt, float *ei_t)
{
    std::int64_t ox = spec.outX();
    std::int64_t nc = spec.nc;
    std::int64_t wf_stride = spec.nf * nc;
    std::int64_t dst_pitch = spec.nx * nc;
    for (std::int64_t t = 0; t < ct.tileCount(); ++t) {
        const CsrMatrix &tile = ct.tile(t);
        std::int64_t f0 = ct.tileColOffset(t);
        const auto &vals = tile.vals();
        const auto &cidx = tile.colIdx();
        const auto &rptr = tile.rowPtr();
        for (std::int64_t row = 0; row < tile.rows(); ++row) {
            std::int64_t begin = rptr[row], end = rptr[row + 1];
            if (begin == end)
                continue;
            std::int64_t yp = row / ox;
            std::int64_t xp = row % ox;
            float *dst_row =
                ei_t + (yp * spec.sy * spec.nx + xp * spec.sx) * nc;
            // Pointer shifting: one non-zero list, Fy*Fx destinations.
            for (std::int64_t ky = 0; ky < spec.fy; ++ky) {
                const float *wky = wt + ky * spec.fx * wf_stride;
                float *dky = dst_row + ky * dst_pitch;
                std::int64_t kx = 0;
                for (; kx + 2 <= spec.fx; kx += 2) {
                    const float *w0 = wky + kx * wf_stride;
                    const float *w1 = w0 + wf_stride;
                    float *d0 = dky + kx * nc;
                    float *d1 = d0 + nc;
                    for (std::int64_t p = begin; p < end; ++p) {
                        std::int64_t off =
                            (f0 + cidx[p]) * nc;
                        axpy2(nc, vals[p], w0 + off, d0, w1 + off, d1);
                    }
                }
                for (; kx < spec.fx; ++kx) {
                    const float *w0 = wky + kx * wf_stride;
                    float *d0 = dky + kx * nc;
                    for (std::int64_t p = begin; p < end; ++p) {
                        std::int64_t off =
                            (f0 + cidx[p]) * nc;
                        axpy(nc, vals[p], w0 + off, d0);
                    }
                }
            }
        }
    }
}

/**
 * Replay one image's non-zero error gradients for BP-weights,
 * accumulating into a private dW' slab in [ky][kx][f][c] layout.
 * Mirror of replayDataImage: the input rows take the weights' side of
 * the AXPY and the dW' rows take the destination side; the same
 * hoisting and kx pairing applies, with identical bit-for-bit
 * guarantees (the two destinations of a pair live in disjoint kx
 * slices of dW').
 *
 * @param spec Layer geometry.
 * @param ct Error gradients as CT-CSR over the (OyOx) x Nf matrix.
 * @param in_t Input channel-fastest, (Ny*Nx) x Nc.
 * @param dw Private dW' accumulator, [ky][kx][f][c].
 */
void
replayWeightsImage(const ConvSpec &spec, const CtCsrMatrix &ct,
                   const float *in_t, float *dw)
{
    std::int64_t ox = spec.outX();
    std::int64_t nc = spec.nc;
    std::int64_t wf_stride = spec.nf * nc;
    std::int64_t src_pitch = spec.nx * nc;
    for (std::int64_t t = 0; t < ct.tileCount(); ++t) {
        const CsrMatrix &tile = ct.tile(t);
        std::int64_t f0 = ct.tileColOffset(t);
        const auto &vals = tile.vals();
        const auto &cidx = tile.colIdx();
        const auto &rptr = tile.rowPtr();
        for (std::int64_t row = 0; row < tile.rows(); ++row) {
            std::int64_t begin = rptr[row], end = rptr[row + 1];
            if (begin == end)
                continue;
            std::int64_t yp = row / ox;
            std::int64_t xp = row % ox;
            const float *src_row =
                in_t + (yp * spec.sy * spec.nx + xp * spec.sx) * nc;
            for (std::int64_t ky = 0; ky < spec.fy; ++ky) {
                float *dw_ky = dw + ky * spec.fx * wf_stride;
                const float *sky = src_row + ky * src_pitch;
                std::int64_t kx = 0;
                for (; kx + 2 <= spec.fx; kx += 2) {
                    float *y0 = dw_ky + kx * wf_stride;
                    float *y1 = y0 + wf_stride;
                    const float *x0 = sky + kx * nc;
                    const float *x1 = x0 + nc;
                    for (std::int64_t p = begin; p < end; ++p) {
                        std::int64_t off =
                            (f0 + cidx[p]) * nc;
                        axpy2(nc, vals[p], x0, y0 + off, x1, y1 + off);
                    }
                }
                for (; kx < spec.fx; ++kx) {
                    float *y0 = dw_ky + kx * wf_stride;
                    const float *x0 = sky + kx * nc;
                    for (std::int64_t p = begin; p < end; ++p) {
                        std::int64_t off =
                            (f0 + cidx[p]) * nc;
                        axpy(nc, vals[p], x0, y0 + off);
                    }
                }
            }
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

    // Weights channel-fastest: W'[ky][kx][f][c]; once per call.
    Tensor wkkfc = Tensor::uninitialized(
        Shape{spec.fy, spec.fx, spec.nf, spec.nc});
    weightsToKkfc(weights.data(), spec.nf, spec.nc, spec.fy, spec.fx,
                  wkkfc.data());
    const float *wt = wkkfc.data();

    pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
        // EI channel-fastest staging, zeroed.
        float *ei_t = ScratchArena::forThread().get(
            kSlotLayoutC, static_cast<std::size_t>(spatial_in) * spec.nc);
        std::memset(ei_t, 0,
                    sizeof(float) * spatial_in * spec.nc);

        replayDataImage(spec, plan->images[b], wt, ei_t);

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

    // Per-image dW' in [ky][kx][f][c], then restore [f][c][ky][kx].
    Tensor dw_kkfc = Tensor::uninitialized(
        Shape{spec.fy, spec.fx, spec.nf, spec.nc});
    reducer_.run(pool, batch, spec.weightElems(),
                 [&](std::int64_t b, float *dw) {
                     // Input channel-fastest: I'[(y,x)][c].
                     float *in_t = ScratchArena::forThread().get(
                         kSlotLayoutB,
                         static_cast<std::size_t>(spatial_in) * spec.nc);
                     chwToHwc(in.data() + b * spec.inputElems(), spec.nc,
                              spec.ny, spec.nx, in_t);
                     replayWeightsImage(spec, plan->images[b], in_t, dw);
                 },
                 dw_kkfc.data());
    weightsFromKkfc(dw_kkfc.data(), spec.fy, spec.fx, spec.nf, spec.nc,
                    dweights.data());
}

} // namespace spg
