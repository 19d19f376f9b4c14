/**
 * @file
 * Neural-network layer interface.
 *
 * Layers are configured with their input geometry (channels x height x
 * width per image) at construction and expose their output geometry.
 * The Network (network.hh) wires layers together, owns the activation
 * and error buffers, and drives forward / backward / update.
 *
 * All batched tensors are [B][C][H][W] row-major; fully-connected
 * layers view them as [B][C*H*W].
 */

#ifndef SPG_NN_LAYER_HH
#define SPG_NN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hh"
#include "threading/thread_pool.hh"

namespace spg {

/** Per-image geometry flowing between layers. */
struct Geometry
{
    std::int64_t c = 0, h = 0, w = 0;

    std::int64_t elems() const { return c * h * w; }

    std::string
    str() const
    {
        return std::to_string(c) + "x" + std::to_string(h) + "x" +
               std::to_string(w);
    }
};

/** Abstract trainable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** @return a short human-readable label ("conv1 64x5x5", ...). */
    virtual std::string name() const = 0;

    /** @return per-image input geometry. */
    virtual Geometry inputGeometry() const = 0;

    /** @return per-image output geometry. */
    virtual Geometry outputGeometry() const = 0;

    /**
     * FP: compute out from in.
     *
     * @param in [B][Cin][Hin][Win].
     * @param out [B][Cout][Hout][Wout], overwritten.
     */
    virtual void forward(const Tensor &in, Tensor &out,
                         ThreadPool &pool) = 0;

    /**
     * BP: compute ei (error w.r.t. in) from eo (error w.r.t. out) and
     * accumulate parameter gradients for the following update().
     *
     * @param in The input the preceding forward() saw.
     * @param out The output the preceding forward() produced.
     * @param eo Error gradients w.r.t. out.
     * @param ei Error gradients w.r.t. in, overwritten.
     */
    virtual void backward(const Tensor &in, const Tensor &out,
                          const Tensor &eo, Tensor &ei,
                          ThreadPool &pool) = 0;

    /**
     * @return true when backward() reads its `in` argument. The
     * network's arena planner frees an activation buffer right after
     * the following layer's forward() when nobody needs it for BP.
     */
    virtual bool backwardUsesInput() const { return true; }

    /** @return true when backward() reads its `out` argument. */
    virtual bool backwardUsesOutput() const { return true; }

    /**
     * @return true when the layer is elementwise and tolerates
     * forward() with out aliasing in, and backward() with ei aliasing
     * eo (each element read before it is written). The arena planner
     * then runs the layer in place instead of giving it own buffers.
     */
    virtual bool inPlaceCapable() const { return false; }

    /**
     * SGD parameter update; no-op for parameterless layers. Runs on
     * @p pool with a static split of each parameter tensor; every
     * element gets the same expression at any pool size, so the
     * updated bytes do not depend on it.
     */
    virtual void update(float /* learning_rate */, ThreadPool & /* pool */)
    {
    }

    /** @return true when the layer has trainable parameters. */
    virtual bool hasParams() const { return false; }

    /** @return parameter count (weights + biases). */
    virtual std::int64_t paramCount() const { return 0; }

    /**
     * @return pointers to the layer's parameter tensors, in a stable
     * order (used by checkpointing). Empty for parameterless layers.
     */
    virtual std::vector<Tensor *> params() { return {}; }

    /**
     * @return pointers to the layer's gradient tensors, matching
     * params() in order and shape. backward() OVERWRITES these with
     * the current minibatch's gradient, so between backward() and
     * update() an external agent (the distrib gradient exchange) may
     * read and replace them — update() then applies whatever they
     * hold. Empty for parameterless layers.
     */
    virtual std::vector<Tensor *> grads() { return {}; }

    /**
     * Notify the layer that its parameter tensors were just mutated
     * through params() (checkpoint restore, parameter averaging) so it
     * can drop caches derived from them (e.g. CSR weight plans).
     * update() implies this; external writers must call it themselves.
     */
    virtual void paramsUpdated() {}

    /** @return true when the layer supports magnitude weight pruning
     *  (carries a prune mask over its weight tensor). */
    virtual bool prunable() const { return false; }

    /**
     * Magnitude-prune the weight tensor to the given zero fraction,
     * recomputing the keep/drop mask and dropping weight-derived
     * caches. update() re-applies the mask after each SGD step so
     * pruned weights stay exactly zero until the next prune step.
     */
    virtual void pruneToSparsity(double /* sparsity */) {}

    /** @return the current zero fraction of the weight tensor. */
    virtual double weightSparsity() const { return 0.0; }

    /**
     * @return the keep(1)/drop(0) byte mask over the weight tensor —
     * empty when never pruned — or nullptr for non-prunable layers.
     * Checkpointing persists and restores it through this accessor;
     * restorers must call paramsUpdated() afterwards.
     */
    virtual std::vector<std::uint8_t> *pruneMask() { return nullptr; }

    /**
     * Put the layer into forward-only (serving) mode: release gradient
     * accumulators and BP staging state, and stop recording BP
     * artifacts during forward() (e.g. ReLU activity masks become a
     * plain fused clamp, pooling skips the argmax record). One-way for
     * the lifetime of the layer; backward()/update() must not be
     * called afterwards. Default no-op: parameterless layers with no
     * BP state have nothing to shed.
     */
    virtual void setInferenceOnly() {}
};

} // namespace spg

#endif // SPG_NN_LAYER_HH
