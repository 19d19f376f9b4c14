/**
 * @file
 * Minibatch SGD training loop with spg-CNN engine scheduling.
 *
 * The trainer drives epochs over a Dataset, and optionally runs the
 * spg-CNN tuner: before the first epoch every conv layer is measured
 * and assigned its fastest engines, and after each epoch the observed
 * error-gradient sparsity decides whether BP choices are re-measured
 * (paper §4.4). Per-epoch statistics (loss, accuracy, throughput,
 * per-layer error sparsity) feed the Fig. 3b and Fig. 9 benches.
 */

#ifndef SPG_NN_TRAINER_HH
#define SPG_NN_TRAINER_HH

#include <string>
#include <vector>

#include "core/tuner.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"
#include "nn/pruning.hh"
#include "obs/drift.hh"

namespace spg {

/** Knobs of one training run. */
struct TrainerOptions
{
    int epochs = 5;
    std::int64_t batch = 16;
    float learning_rate = 0.05f;
    bool shuffle = true;
    std::uint64_t shuffle_seed = 7;

    /** Engine scheduling mode. */
    enum class Mode
    {
        Fixed,     ///< keep whatever engines the layers already have
        Autotune   ///< measure-and-pick per layer, with re-tuning
    };
    Mode mode = Mode::Autotune;

    TunerOptions tuner;
    bool log_epochs = true;

    /** Magnitude weight pruning (pruning.hh); disabled by default.
     *  When active, each prunable layer is re-pruned at the start of
     *  each epoch along the ramp, and under Autotune the FP engine
     *  choice is re-measured at the new weight sparsity whenever the
     *  pruned fraction moves past the tuner's drift threshold. */
    PruneOptions prune;
};

/** Per-epoch record. */
struct EpochStats
{
    int epoch = 0;
    double mean_loss = 0;
    double accuracy = 0;          ///< training accuracy over the epoch
    double seconds = 0;
    double images_per_second = 0;
    /** Error-gradient sparsity per conv layer (network order). */
    std::vector<double> conv_error_sparsity;
    /** Weight sparsity per conv layer (network order). */
    std::vector<double> conv_weight_sparsity;
    /** Pruned fraction across all prunable weight tensors. */
    double weight_sparsity = 0;
    /** Training-accuracy change vs. the previous epoch (0 for the
     *  first) — the pruning cost signal next to the pruned fraction. */
    double accuracy_delta = 0;
    /** Engines deployed per conv layer after any re-tuning. */
    std::vector<EngineAssignment> conv_engines;

    /** Encode-once sparse BP accounting for the epoch's training steps
     *  (SparsePlanCache deltas): CT-CSR plans built, plan reuses, and
     *  wall time spent encoding — reported separately from compute. */
    std::int64_t sparse_encodes = 0;
    std::int64_t sparse_plan_hits = 0;
    double sparse_encode_seconds = 0;

    /** Phase-time breakdown over the epoch's conv layers (ConvLayer
     *  profile deltas, summed across layers). */
    double fp_seconds = 0;
    double bp_data_seconds = 0;
    double bp_weights_seconds = 0;
    /** Pool schedule imbalance over the epoch's training steps:
     *  max/mean per-worker busy time (1.0 = perfectly balanced). */
    double pool_imbalance = 1.0;

    /** Package energy the epoch drew (RAPL), -1 when unavailable. */
    double joules = -1;
    /** Goodput per watt: images trained per joule ((img/s)/W); -1
     *  when energy is unavailable. */
    double images_per_joule = -1;
    /** DRAM traffic the epoch's conv phases moved (LLC misses x cache
     *  line, own thread + pool workers); -1 when counters are off. */
    double conv_bytes = -1;

    /** Fused ReLU epilogue passes executed this epoch (each one is an
     *  eliminated standalone elementwise sweep over an activation). */
    std::int64_t fused_relu_passes = 0;
    /** Liveness-planned activation arena size vs. what the same
     *  buffers would take without interval reuse. */
    std::int64_t arena_bytes = 0;
    std::int64_t arena_unplanned_bytes = 0;
};

/** Runs SGD over a dataset. */
class Trainer
{
  public:
    /**
     * @param network Network to train (borrowed; must outlive the
     *        trainer).
     * @param dataset Training data (borrowed).
     * @param options Run configuration.
     */
    Trainer(Network &network, const Dataset &dataset,
            TrainerOptions options = {});

    /**
     * Train for options.epochs epochs.
     *
     * @param pool Worker pool (its size is the deployed core count).
     * @return one record per epoch.
     */
    std::vector<EpochStats> run(ThreadPool &pool);

    /** @return images/second over the whole run (set by run()). */
    double overallThroughput() const { return overall_ips; }

    /**
     * Measured-vs-modeled drift over the layer phases of the last
     * run(): every epoch contributes one sample per conv layer per
     * phase, joining the measured per-step time against the simcpu
     * prediction for the engine that actually ran (on a host-calibrated
     * machine model at the pool's core count). Engines without a model
     * (see hasConvModel()) are skipped.
     */
    const obs::DriftReport &driftReport() const { return drift; }

  private:
    void tuneAll(ThreadPool &pool, double sparsity_hint);

    /** One per-layer per-phase measurement awaiting its model join. */
    struct PendingDrift
    {
        std::string label;
        ConvSpec spec;
        Phase phase;
        std::string engine;
        std::string layout = "nchw";  ///< from the plan's EngineTiming
        double sparsity = 0;
        double weight_sparsity = 0;
        double measured_seconds = 0;  ///< per training step
        double measured_bytes = -1;   ///< per step; -1 when no counters
        std::vector<std::int64_t> chunk_map;
        bool fused_relu = false;
    };

    void collectDriftSamples(ThreadPool &pool, int steps,
                             const std::vector<ConvLayer::PhaseProfile>
                                 &prof_before,
                             const std::vector<double> &sparsity);
    void joinDrift(ThreadPool &pool);

    Network &network;
    const Dataset &dataset;
    TrainerOptions opts;
    Tuner tuner;
    /** Each conv layer's current plan (FP timings carried across
     *  BP-only re-tunes). */
    std::vector<LayerPlan> plans;
    std::vector<PendingDrift> pending_drift;
    obs::DriftReport drift;
    double overall_ips = 0;
};

} // namespace spg

#endif // SPG_NN_TRAINER_HH
