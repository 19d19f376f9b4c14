/**
 * @file
 * A feed-forward CNN assembled from a NetConfig.
 *
 * The network owns the layers and the inter-layer activation / error
 * buffers, and drives the FP -> loss -> BP -> SGD-update cycle. Conv
 * layers expose their engine assignments so the spg-CNN tuner (or an
 * experiment harness) can deploy and re-deploy execution plans.
 */

#ifndef SPG_NN_NETWORK_HH
#define SPG_NN_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/net_config.hh"
#include "nn/conv_layer.hh"
#include "nn/fc_layer.hh"
#include "nn/simple_layers.hh"

namespace spg {

/** Loss/accuracy of one training step. */
struct StepStats
{
    double loss = 0;
    double accuracy = 0;
};

/** A stack of layers ending in a softmax head. */
class Network
{
  public:
    /**
     * Build from a parsed description.
     *
     * @param config Network description; must end with a softmax (one
     *        is appended when missing).
     * @param seed Weight-initialization seed.
     * @param inference_only Build a forward-only network for serving:
     *        layers shed gradient accumulators and BP artifacts, the
     *        activation arena is planned over the FP timeline alone
     *        (no error buffers at all), and trainStep() is forbidden.
     */
    explicit Network(const NetConfig &config, std::uint64_t seed = 1,
                     bool inference_only = false);

    /**
     * Run FP over a minibatch.
     *
     * @param images [B][C][H][W] input batch.
     * @return class probabilities [B][classes][1][1].
     */
    const Tensor &forward(const Tensor &images, ThreadPool &pool);

    /**
     * One SGD step: FP, loss, BP, parameter update.
     *
     * @param images Input batch.
     * @param labels Target class per image.
     * @param learning_rate SGD step size.
     */
    StepStats trainStep(const Tensor &images,
                        const std::vector<int> &labels,
                        float learning_rate, ThreadPool &pool);

    /**
     * Called right after a layer's backward() completes, while its
     * gradient tensors hold this minibatch's gradient.
     *
     * @param layer_idx Index of the layer that just finished BP.
     * @param layer The layer (grads() is live).
     * @param ready_s Seconds since the step's forward() began — the
     *        gradient bucket's ready time for exchange scheduling.
     */
    using BackwardHook =
        std::function<void(std::size_t layer_idx, Layer &layer,
                           double ready_s)>;

    /**
     * FP + loss + BP without the parameter update — the first half of
     * trainStep(), split out so a gradient-exchange agent can average
     * grads() across replicas before applyUpdate(). With a null hook,
     * forwardBackward + applyUpdate is bit-for-bit trainStep.
     *
     * @param hook Optional per-layer BP completion callback.
     */
    StepStats forwardBackward(const Tensor &images,
                              const std::vector<int> &labels,
                              ThreadPool &pool,
                              const BackwardHook &hook = nullptr);

    /** The second half of trainStep(): SGD update from the gradients
     *  currently held in every layer's grads(), run on the pool of the
     *  last forwardBackward() (fatal when none ran). */
    void applyUpdate(float learning_rate);

    /** FP-only accuracy over a labeled batch. */
    double evalAccuracy(const Tensor &images,
                        const std::vector<int> &labels, ThreadPool &pool);

    /** Convolution layers in network order (for tuning/reporting). */
    std::vector<ConvLayer *> convLayers();

    /** @return total trainable parameter count. */
    std::int64_t paramCount() const;

    /** @return number of layers. */
    std::size_t layerCount() const { return layers.size(); }

    /** @return layer i (network order). */
    Layer &layer(std::size_t i) { return *layers[i]; }

    /** @return per-image input geometry. */
    Geometry inputGeometry() const { return input_geom; }

    /** @return class count of the softmax head. */
    std::int64_t classes() const { return head->inputGeometry().c; }

    /** Log a one-line-per-layer summary via inform(). */
    void describe() const;

    /** conv->relu / fc->relu pairs collapsed by epilogue fusion. */
    std::int64_t fusedPairs() const { return fused_pairs; }

    /**
     * Bytes of the liveness-planned activation arena backing the
     * inter-layer buffers (high-water mark of the interval packing).
     * Valid after the first forward()/trainStep() for a batch size.
     */
    std::int64_t arenaBytes() const { return arena_bytes_; }

    /** Bytes the same buffers would take without interval reuse. */
    std::int64_t arenaUnplannedBytes() const
    {
        return arena_unplanned_bytes_;
    }

    /** @return true when built forward-only (serving mode). */
    bool forwardOnly() const { return inference_only_; }

    /**
     * Error-buffer views currently held (0 in forward-only mode — the
     * FP timeline allocates no BP slab at all). Valid after the first
     * forward().
     */
    std::size_t errorBufferCount() const { return errs.size(); }

    /**
     * Plan the activation arena for coalesced batches up to
     * @p max_batch and keep it: later forward() calls with any batch
     * size <= max_batch only rebuild tensor views into the existing
     * slabs instead of re-planning and re-allocating. A serving
     * instance calls this once at warmup so ragged dynamic batches
     * never touch the allocator on the request path. Every per-buffer
     * shape is linear in the batch extent, so a slot sized at
     * max_batch fits the same buffer at any smaller batch.
     */
    void reserveBatch(std::int64_t max_batch);

  private:
    void ensureBuffers(std::int64_t batch);
    /** Compute live intervals, pack slots, allocate slabs for
     *  @p batch. Invalidates the current views. */
    void planArena(std::int64_t batch);
    /** Rebuild acts/errs views at @p batch into the planned slabs. */
    void buildViews(std::int64_t batch);

    Geometry input_geom;
    std::vector<std::unique_ptr<Layer>> layers;
    SoftmaxLayer *head = nullptr;  ///< owned by `layers`, always last
    bool inference_only_ = false;
    /** Pool of the last forwardBackward(); applyUpdate() runs on it. */
    ThreadPool *update_pool_ = nullptr;
    /** Arena slabs backing acts/errs views; sized at plan_batch_. */
    std::vector<AlignedBuffer<float>> arena_slabs;
    std::vector<Tensor> acts;      ///< acts[i]: output of layer i
    std::vector<Tensor> errs;      ///< errs[i]: error w.r.t. layer i input
    /** One planned logical buffer: enough to rebuild its view at any
     *  batch <= plan_batch_ (shapes are linear in the batch extent). */
    struct BufPlan
    {
        Geometry geom;  ///< per-image extents
        std::int64_t slot = 0;
    };
    std::vector<BufPlan> buf_plans_;  ///< acts then errs, root slots
    std::int64_t plan_batch_ = 0;  ///< batch the slots were sized for
    std::int64_t view_batch_ = 0;  ///< batch the current views carry
    std::int64_t reserve_batch_ = 0;
    std::int64_t fused_pairs = 0;
    std::int64_t arena_bytes_ = 0;
    std::int64_t arena_unplanned_bytes_ = 0;
};

} // namespace spg

#endif // SPG_NN_NETWORK_HH
