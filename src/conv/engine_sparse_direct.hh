/**
 * @file
 * Register-tiled direct sparse convolution over CSR weights.
 *
 * The weight-sparsity FP engine for pruned models (Park et al.,
 * "Faster CNNs with Direct Sparse Convolutions and Guided Pruning",
 * PAPERS.md) — the complementary direction to the paper's
 * error-sparsity BP kernel. The weights are encoded once per
 * weight version into a SparseWeightPlan held by the persistent
 * PackedWeightCache (rows = output features, columns = flattened
 * (c, ky, kx) taps, plus precomputed input offsets), so steady-state
 * forward passes pay zero encode work; ConvLayer::paramsUpdated()
 * invalidation plus the cache's FNV-1a content fingerprint re-encode
 * exactly when a pruning step or SGD update changes the weights.
 *
 * Instead of accumulating every non-zero tap into the output plane
 * (a row-AXPY per tap: one read-modify-write of the plane each, 1.3-
 * 1.6x slower at every sparsity), the kernel keeps a register tile
 * of output PIXELS in double-precision accumulators, streams the
 * feature's CSR row once per tile —
 *
 *     acc[x] += (double)w[p] * I[in_off[p] + y*sy*nx + x]
 *
 * — and writes each output pixel exactly once, rounding the double
 * sum to float at the end. Within a CSR row the surviving taps stay
 * in ascending (c, ky, kx) order, so each pixel's accumulation chain
 * is the reference chain of conv_ref minus exact zeros: results are
 * bit-for-bit equal to ReferenceEngine on the surviving taps (see
 * direct_block.hh for the FMA argument). The fused Epilogue is
 * applied per output row at last write.
 *
 * Unit-stride rows use AVX-512 (4/2/1 zmm of 8 doubles) or AVX2
 * register tiles with a scalar tail; strided layers fall back to the
 * scalar per-pixel chain, which keeps the same accumulation order.
 */

#ifndef SPG_CONV_ENGINE_SPARSE_DIRECT_HH
#define SPG_CONV_ENGINE_SPARSE_DIRECT_HH

#include "conv/engine.hh"

namespace spg {

/** Register-tiled FP engine over once-encoded CSR weights. */
class SparseDirectFpEngine : public ConvEngine
{
  public:
    using ConvEngine::forward;

    std::string name() const override
    {
        return "sparse-weights-direct";
    }
    bool supports(Phase phase) const override
    {
        return phase == Phase::Forward;
    }
    /** Only a pruned layer has taps to skip. */
    bool appliesTo(const ConvSpec &, double weight_sparsity) const override
    {
        return weight_sparsity > 0.0;
    }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_SPARSE_DIRECT_HH
