/**
 * @file
 * Sparse-Kernel back-propagation engine (paper §4.2).
 *
 * Exploits the (ReLU-induced) sparsity of the output-activation errors
 * EO to raise BP goodput. The computation is performed in place,
 * without unfolding, as a composition of small dense MMs via the
 * paper's POINTER SHIFTING technique:
 *
 *  - data layout: EO is read feature-fastest as CT-CSR (rows = output
 *    pixels, columns = features), the input and the input-gradient
 *    staging are channel-fastest ([y][x][c]), and the weights are
 *    padded KERNEL ROWS W'[f][ky][r]: r = kx * nc + c runs over the
 *    fx * nc (kx, c) floats of one kernel row, zero-padded to a
 *    multiple of 16. One output pixel touches, in each of its fy input
 *    rows, exactly those fx * nc contiguous channel-fastest floats, in
 *    the same order. So the basic block
 *
 *        S'[ky][r] += E'O[f] * W'[f][ky][r]
 *
 *    vectorizes along the whole kernel row rather than along the
 *    channels alone — which matters for the first layer, where Nc is
 *    3 (cifar10) or 1 (mnist): every non-zero is one FMA per 16-lane
 *    vector of its feature's fy rows;
 *
 *  - for each non-zero error at (y', x'), the SAME non-zero list is
 *    replayed for every kernel row ky; only the pointers shift, to
 *    EI[y'*sy + ky, x'*sx, :] (Eq. 15) — fy shifts per pixel;
 *
 *  - BP-data keeps one pixel's fy destination rows in registers across
 *    its non-zeros and stores them once, masking only each row's last
 *    vector; BP-weights keeps the pixel's fy input rows in registers
 *    (zero tail lanes) and does one full-width read-modify-write per
 *    vector of dW'[f][ky] per non-zero, into padded slabs whose pad
 *    lanes are dropped when [f][c][ky][kx] is restored. Rows that do
 *    not fit the registers are processed in even passes;
 *
 *  - EO is stored in Column-Tiled CSR (rows = spatial positions,
 *    columns = features, tiled along features) so that the weight
 *    slice a feature band touches stays cache-resident and row walks
 *    stay TLB-friendly (Fig. 5a).
 *
 * Every destination float takes its contributions in (feature tile,
 * pixel, non-zero) order with one FMA each, so the outputs do not
 * depend on the register blocking or on the pool size.
 *
 * The error gradients are encoded ONCE per minibatch: BP-data builds
 * the CT-CSR plan through SparsePlanCache — with the fused
 * CtCsrMatrix::fromChw builder, so no dense HWC staging transpose is
 * written, and a fused ReLU mask gates liveness inside the same sweep
 * — and BP-weights replays the same shared read-only plan. All
 * data-layout transformation and CT-CSR construction costs are inside
 * the engine, as in the paper's measurements.
 */

#ifndef SPG_CONV_ENGINE_SPARSE_HH
#define SPG_CONV_ENGINE_SPARSE_HH

#include "conv/batch_reduce.hh"
#include "conv/engine.hh"

namespace spg {

/** Sparsity-exploiting BP engine (the paper's Sparse-Kernel). */
class SparseBpEngine : public ConvEngine
{
  public:
    /**
     * @param feature_tile CT-CSR column (feature) tile width; 0 picks
     *        the default. The ablation bench passes the full feature
     *        count to degrade CT-CSR to plain CSR.
     */
    explicit SparseBpEngine(std::int64_t feature_tile = 0)
        : featureTile(feature_tile)
    {}

    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;

    std::string name() const override { return "sparse"; }
    bool supports(Phase phase) const override
    {
        return phase == Phase::BackwardData ||
               phase == Phase::BackwardWeights;
    }

    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;

    /** @return the feature tile width used for the given Nf. */
    std::int64_t effectiveFeatureTile(std::int64_t nf) const;

  private:
    std::int64_t featureTile;
    /** Deterministic per-image dW' reduction in padded [f][ky][r]. */
    mutable BatchReducer reducer_;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_SPARSE_HH
