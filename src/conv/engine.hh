/**
 * @file
 * The convolution engine interface.
 *
 * An engine executes one convolution layer over a minibatch in one of
 * the three training phases: forward propagation (FP), backward data
 * (error gradients, Eq. 3) and backward weights (delta weights,
 * Eq. 4). spg-CNN's scheduler (src/core) measures every applicable
 * engine per layer/phase and deploys the fastest, re-checking as the
 * error sparsity evolves across epochs (paper §4.4).
 *
 * Every phase accepts a fused elementwise stage so the network can
 * collapse conv->relu pairs:
 *
 *  - FP takes an Epilogue, applied to each output region at the point
 *    where the engine last touches it (tile still cache-hot) instead
 *    of a separate full-tensor ReLU pass;
 *  - BP takes a BpMask, the byte mask the FP epilogue saved; consumers
 *    read eo through it (mask ? eo : 0) so the standalone masking pass
 *    over the error tensor disappears.
 *
 * The mask is saved from the POST-activation sign (out > 0), which for
 * ReLU is exactly the pre-activation predicate (x > 0 implies
 * relu(x) = x > 0, including -0.0 and NaN), so fused BP is bit-for-bit
 * identical to the unfused relu-then-conv-backward sequence.
 *
 * Batched tensor layouts (row-major):
 *   input   : [B][Nc][Ny][Nx]
 *   weights : [Nf][Nc][Fy][Fx]
 *   output  : [B][Nf][Oy][Ox]
 */

#ifndef SPG_CONV_ENGINE_HH
#define SPG_CONV_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "conv/conv_spec.hh"
#include "tensor/tensor.hh"
#include "threading/thread_pool.hh"

namespace spg {

/** Which training phase an engine call executes. */
enum class Phase { Forward, BackwardData, BackwardWeights };

/** @return human-readable phase name. */
const char *phaseName(Phase phase);

/**
 * Fused output stage for the forward phase. Engines apply it to each
 * output region exactly once, immediately after that region's last
 * write, while the tile is still register/L2-hot.
 */
struct Epilogue
{
    enum class Kind : unsigned char
    {
        None,     ///< plain convolution output
        Relu,     ///< out = max(out, 0)
        ReluMask  ///< ReLU + save a byte activity mask for BP
    };

    Kind kind = Kind::None;
    /** Byte mask [B][Nf][Oy][Ox] (same layout as out); required for
     *  ReluMask, ignored otherwise. mask[i] = 1 iff out[i] stayed
     *  positive. */
    std::uint8_t *mask = nullptr;

    bool active() const { return kind != Kind::None; }

    /**
     * Apply in place to a contiguous output region.
     *
     * @param region First element of the region (inside out).
     * @param offset Flat offset of the region within the batched
     *        output tensor (indexes the mask).
     * @param count Region length in elements.
     */
    void
    apply(float *region, std::int64_t offset, std::int64_t count) const
    {
        switch (kind) {
          case Kind::None:
            return;
          case Kind::Relu:
            for (std::int64_t i = 0; i < count; ++i)
                region[i] = region[i] > 0.0f ? region[i] : 0.0f;
            return;
          case Kind::ReluMask: {
            std::uint8_t *m = mask + offset;
            for (std::int64_t i = 0; i < count; ++i) {
                float v = region[i];
                bool live = v > 0.0f;
                m[i] = live ? 1 : 0;
                region[i] = live ? v : 0.0f;
            }
            return;
          }
        }
    }
};

/**
 * Fused ReLU mask for the backward phases: consumers read the output
 * errors as (mask[i] ? eo[i] : 0) instead of requiring a separate
 * masking pass to have rewritten eo first.
 */
struct BpMask
{
    /** Byte mask [B][Nf][Oy][Ox], as saved by Epilogue::ReluMask;
     *  nullptr means "no mask" (read eo unchanged). */
    const std::uint8_t *mask = nullptr;

    bool active() const { return mask != nullptr; }

    /**
     * Stage a masked copy of a contiguous eo region.
     *
     * @param eo First element of the source region.
     * @param offset Flat offset of the region within the batched error
     *        tensor (indexes the mask).
     * @param count Region length in elements.
     * @param dst Destination (fully overwritten).
     */
    void
    stage(const float *eo, std::int64_t offset, std::int64_t count,
          float *dst) const
    {
        const std::uint8_t *m = mask + offset;
        for (std::int64_t i = 0; i < count; ++i)
            dst[i] = m[i] ? eo[i] : 0.0f;
    }
};

/**
 * @return the EO operand for one image's backward kernel: @p eo itself
 * when the fused mask is inactive, else a masked copy staged in the
 * calling thread's scratch (kSlotMaskedEo). The staged image is
 * consumed immediately, so the copy stays cache-hot instead of a
 * full-tensor masking pass over DRAM.
 */
const float *stagedMaskedEo(const ConvSpec &spec, const float *eo,
                            std::int64_t eo_offset, const BpMask &mask);

/**
 * Abstract convolution executor. Implementations are stateless with
 * respect to the minibatch (scratch is per-thread) so one instance can
 * serve many layers of identical spec.
 *
 * The 5-argument entry points are convenience dispatchers (epilogue /
 * mask disabled); engines override the trailing-argument virtuals.
 */
class ConvEngine
{
  public:
    virtual ~ConvEngine() = default;

    /** @return engine name as used in reports ("parallel-gemm", ...). */
    virtual std::string name() const = 0;

    /** @return true when this engine implements the given phase. */
    virtual bool supports(Phase phase) const = 0;

    /**
     * @return true when this engine is a candidate for a layer with
     * the given geometry and weight zero fraction (default: always).
     * Specialized engines refine it: Winograd needs 3x3 stride-1
     * kernels, the CSR-weights engine a pruned layer. The tuner only
     * measures engines for which this holds.
     */
    virtual bool
    appliesTo(const ConvSpec &, double /*weight_sparsity*/) const
    {
        return true;
    }

    /** FP without a fused epilogue. */
    void
    forward(const ConvSpec &spec, const Tensor &in, const Tensor &weights,
            Tensor &out, ThreadPool &pool) const
    {
        forward(spec, in, weights, out, pool, Epilogue{});
    }

    /** BP-data without a fused mask. */
    void
    backwardData(const ConvSpec &spec, const Tensor &eo,
                 const Tensor &weights, Tensor &ei, ThreadPool &pool) const
    {
        backwardData(spec, eo, weights, ei, pool, BpMask{});
    }

    /** BP-weights without a fused mask. */
    void
    backwardWeights(const ConvSpec &spec, const Tensor &eo,
                    const Tensor &in, Tensor &dweights,
                    ThreadPool &pool) const
    {
        backwardWeights(spec, eo, in, dweights, pool, BpMask{});
    }

    /**
     * FP: out[b] = epilogue(conv(in[b], weights)) for each image b.
     *
     * @param spec Layer geometry.
     * @param in Input activations [B][Nc][Ny][Nx].
     * @param weights Weights [Nf][Nc][Fy][Fx].
     * @param out Output activations [B][Nf][Oy][Ox], overwritten.
     * @param pool Worker pool carrying the core count.
     * @param epilogue Fused output stage (apply where tiles are hot).
     */
    virtual void forward(const ConvSpec &spec, const Tensor &in,
                         const Tensor &weights, Tensor &out,
                         ThreadPool &pool, const Epilogue &epilogue) const;

    /**
     * BP-data: ei[b] = Eq. 3 applied to mask(eo[b]). ei is overwritten.
     *
     * @param spec Layer geometry.
     * @param eo Output-activation errors [B][Nf][Oy][Ox].
     * @param weights Weights [Nf][Nc][Fy][Fx].
     * @param ei Input-activation errors [B][Nc][Ny][Nx], overwritten.
     * @param pool Worker pool.
     * @param mask Fused ReLU mask over eo (may be inactive).
     */
    virtual void backwardData(const ConvSpec &spec, const Tensor &eo,
                              const Tensor &weights, Tensor &ei,
                              ThreadPool &pool, const BpMask &mask) const;

    /**
     * BP-weights: dweights = sum_b Eq. 4 over mask(eo). dweights is
     * overwritten (not accumulated across calls).
     *
     * @param spec Layer geometry.
     * @param eo Output-activation errors [B][Nf][Oy][Ox].
     * @param in Input activations [B][Nc][Ny][Nx].
     * @param dweights Weight gradients [Nf][Nc][Fy][Fx], overwritten.
     * @param pool Worker pool.
     * @param mask Fused ReLU mask over eo (may be inactive).
     */
    virtual void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                                 const Tensor &in, Tensor &dweights,
                                 ThreadPool &pool,
                                 const BpMask &mask) const;

  protected:
    /** Validate batched tensor shapes against the spec; panics on
     *  mismatch (engine call sites are internal). */
    static void checkForwardShapes(const ConvSpec &spec, const Tensor &in,
                                   const Tensor &weights,
                                   const Tensor &out);
    static void checkBackwardShapes(const ConvSpec &spec, const Tensor &eo,
                                    const Tensor &weights,
                                    const Tensor &ei);
};

/**
 * Naive reference engine wrapping conv_ref.hh — the oracle used by
 * tests; sequential over the batch.
 */
class ReferenceEngine : public ConvEngine
{
  public:
    using ConvEngine::backwardData;
    using ConvEngine::backwardWeights;
    using ConvEngine::forward;

    std::string name() const override { return "reference"; }
    bool supports(Phase) const override { return true; }

    void forward(const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, Tensor &out, ThreadPool &pool,
                 const Epilogue &epilogue) const override;
    void backwardData(const ConvSpec &spec, const Tensor &eo,
                      const Tensor &weights, Tensor &ei, ThreadPool &pool,
                      const BpMask &mask) const override;
    void backwardWeights(const ConvSpec &spec, const Tensor &eo,
                         const Tensor &in, Tensor &dweights,
                         ThreadPool &pool,
                         const BpMask &mask) const override;
};

} // namespace spg

#endif // SPG_CONV_ENGINE_HH
