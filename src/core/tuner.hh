/**
 * @file
 * The spg-CNN computation scheduler (paper §4.4).
 *
 * For each convolution layer and each training phase, the tuner runs
 * every applicable engine on representative data, measures it, and
 * deploys the fastest. Because the profitability of the sparse BP
 * kernel depends on the error-gradient sparsity — which drifts as the
 * model trains — the tuner re-checks BP choices every
 * `retune_interval` epochs.
 */

#ifndef SPG_CORE_TUNER_HH
#define SPG_CORE_TUNER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "conv/engines.hh"
#include "tensor/tensor.hh"
#include "threading/thread_pool.hh"

namespace spg {

/** Measured time of one engine on one phase. */
struct EngineTiming
{
    std::string engine;
    double seconds = 0;
    /** Encode share attributable to this engine, in seconds (the
     *  encode-once engines only; zero when the phase replayed a
     *  cached plan). For "sparse" this is the per-minibatch CT-CSR
     *  encode inside the BP-data `seconds`; for the CSR-weights FP
     *  engine it is the once-per-weight-version encode measured
     *  OUTSIDE the timed reps — production amortizes it across a
     *  whole prune interval, so `seconds` is the steady-state warm
     *  cost. */
    double encode_seconds = 0;
    /** Actual zero fraction of the weight tensor the measurement ran
     *  with — the sparsity axis of the FP crossover decision. */
    double weight_sparsity = 0;
    /** Pool schedule imbalance over the measurement: max/mean
     *  per-worker busy time (1.0 = perfectly balanced). */
    double imbalance = 1.0;
    /** Iteration-space items each pool worker executed during the
     *  measurement — the schedule that actually ran, which simcpu can
     *  charge instead of an idealized even split. */
    std::vector<std::int64_t> chunk_map;
    /** Hardware-counter DRAM traffic per phase execution (LLC misses
     *  x cache line, averaged over warmup + timed reps, summed over
     *  the measuring thread and every pool worker). -1 when counters
     *  are unavailable — distinguish from a measured zero. Feeds the
     *  drift report's measured-vs-modeled traffic join and lets
     *  MachineModel::calibrate fit the bandwidth axis from counters
     *  instead of timed kernels alone. */
    double measured_bytes = -1.0;
};

/** The tuner's decision for one layer. */
struct LayerPlan
{
    std::string fp_engine;
    std::string bp_data_engine;
    std::string bp_weights_engine;

    /** All measurements behind the decision, per phase. */
    std::map<Phase, std::vector<EngineTiming>> timings;

    /** Sparsity the BP choices were tuned at. */
    double tuned_sparsity = 0;

    /** Weight sparsity the FP choice was tuned at; pruning past the
     *  drift threshold re-measures FP at the new value. */
    double tuned_weight_sparsity = 0;

    /** @return the engine chosen for a phase. */
    const std::string &enginesFor(Phase phase) const;
};

/**
 * The serving scheduler's decision for one conv layer: an FP engine
 * per coalesced-batch-size bucket. A dynamic batcher hands the network
 * whatever batch coalesced under its latency budget, and the best FP
 * engine shifts with that batch size (small batches amortize less
 * im2col/pack overhead, so the crossovers sit elsewhere than at the
 * training minibatch). BP phases do not exist in this regime.
 */
struct ServingLayerPlan
{
    /** Bucket batch sizes, ascending; always ends at max_batch. */
    std::vector<std::int64_t> buckets;
    /** Chosen FP engine per bucket (parallel to `buckets`). */
    std::vector<std::string> fp_engines;
    /** All measurements behind each choice (parallel to `buckets`). */
    std::vector<std::vector<EngineTiming>> timings;
    /** Weight sparsity the measurements ran at. */
    double tuned_weight_sparsity = 0;

    /** Bucket index serving a coalesced batch: the smallest bucket
     *  >= batch, or the last bucket for anything larger. */
    std::size_t bucketForBatch(std::int64_t batch) const;
    const std::string &engineForBatch(std::int64_t batch) const;
};

/** Tuning knobs. */
struct TunerOptions
{
    /** Timed repetitions per engine measurement. */
    int reps = 3;
    /** Minibatch size used for measurement. */
    std::int64_t batch = 8;
    /** Epochs between BP re-tunes during training. */
    int retune_interval = 2;
    /** Sparsity change that forces a re-tune regardless of interval. */
    double sparsity_drift = 0.10;
};

/**
 * Measures engines and produces LayerPlans. Engines are owned by the
 * tuner; one tuner instance can serve a whole network.
 */
class Tuner
{
  public:
    explicit Tuner(TunerOptions options = {});

    /**
     * Measure every engine that supports each phase and appliesTo()
     * this layer, at the given error sparsity, and return the fastest
     * set.
     *
     * @param spec Layer geometry.
     * @param sparsity Expected sparsity of the output-error gradients.
     * @param pool Worker pool (its size is the deployed core count).
     * @param fused_relu Measure the engines as the layer will actually
     *        run them: FP with the ReLU-mask epilogue, BP with the
     *        saved byte mask applied to the error gradients.
     * @param weight_sparsity Zero fraction of the layer's weights —
     *        the synthetic weight tensor is sparsified to it so the
     *        CSR-weights FP engines are measured at the sparsity they
     *        would actually run at (Fig. 4-style crossover).
     */
    LayerPlan tune(const ConvSpec &spec, double sparsity, ThreadPool &pool,
                   bool fused_relu = false,
                   double weight_sparsity = 0.0) const;

    /**
     * Re-tune only the BP phases, carrying the FP choice and its
     * timings forward from `previous`. FP profitability does not
     * depend on the error sparsity, so a shouldRetune()-triggered
     * re-tune need not re-measure it. Falls back to a full tune when
     * `previous` has no FP decision.
     */
    LayerPlan retuneBp(const LayerPlan &previous, const ConvSpec &spec,
                       double sparsity, ThreadPool &pool,
                       bool fused_relu = false) const;

    /**
     * @return true when a plan tuned at `plan.tuned_sparsity` should
     * be re-tuned given the currently observed sparsity and the epoch
     * index (paper §4.4's periodic re-check).
     */
    bool shouldRetune(const LayerPlan &plan, double observed_sparsity,
                      int epoch) const;

    /**
     * Serving-regime tuning: measure every applicable FP engine at
     * each coalesced-batch-size bucket (servingBuckets(max_batch)) and
     * return the per-bucket winners. Measurements run the exact
     * serving path — a fused ReLU is the plain clamp epilogue, no
     * activity mask is stored — so the choice reflects what a
     * forward-only instance will actually execute.
     */
    ServingLayerPlan tuneServing(const ConvSpec &spec,
                                 std::int64_t max_batch,
                                 ThreadPool &pool,
                                 bool fused_relu = false,
                                 double weight_sparsity = 0.0) const;

    /** Power-of-two bucket ladder 1, 2, 4, ... capped at (and always
     *  including) max_batch. */
    static std::vector<std::int64_t> servingBuckets(
        std::int64_t max_batch);

    const TunerOptions &options() const { return opts; }

  private:
    /**
     * @param cold_plan Time sparse BP-weights on a plan it must encode
     *        itself: BP-data deploys another engine, so in training no
     *        BP-data call leaves the minibatch's plan warm.
     */
    EngineTiming measure(const ConvEngine &engine, Phase phase,
                         const ConvSpec &spec, const Tensor &in,
                         const Tensor &weights, const Tensor &eo,
                         ThreadPool &pool, bool fused_relu,
                         bool serving = false,
                         bool cold_plan = false) const;

    void tunePhases(LayerPlan &plan, const std::vector<Phase> &phases,
                    const ConvSpec &spec, double sparsity,
                    ThreadPool &pool, bool fused_relu,
                    double weight_sparsity) const;

    TunerOptions opts;
    std::vector<std::unique_ptr<ConvEngine>> engines;
};

} // namespace spg

#endif // SPG_CORE_TUNER_HH
