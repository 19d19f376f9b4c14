/**
 * @file
 * Convolutional layer with pluggable execution engines.
 *
 * This is where spg-CNN meets the training loop: every call to
 * forward / backward is dispatched to the engine the scheduler
 * currently deploys for that phase, and the layer records the sparsity
 * of the error gradients it receives so the tuner can re-check its BP
 * choice as sparsity drifts across epochs (paper §4.4, Fig. 3b).
 */

#ifndef SPG_NN_CONV_LAYER_HH
#define SPG_NN_CONV_LAYER_HH

#include <map>
#include <memory>

#include "conv/engines.hh"
#include "nn/layer.hh"
#include "obs/perfcnt.hh"
#include "util/random.hh"

namespace spg {

namespace obs {
class Gauge;
} // namespace obs

/** Engine assignment for the three phases of one conv layer. */
struct EngineAssignment
{
    std::string fp = "gemm-in-parallel";
    std::string bp_data = "gemm-in-parallel";
    std::string bp_weights = "gemm-in-parallel";
};

/** A 2-D convolution layer (no padding, square kernels allowed any). */
class ConvLayer : public Layer
{
  public:
    /**
     * @param label Display name ("conv1").
     * @param spec Geometry; spec.nx/ny/nc must match the input.
     * @param rng Weight initialization source (He-scaled gaussian).
     */
    ConvLayer(std::string label, const ConvSpec &spec, Rng &rng);
    ~ConvLayer() override;

    std::string name() const override;
    Geometry inputGeometry() const override
    {
        return Geometry{spec_.nc, spec_.ny, spec_.nx};
    }
    Geometry outputGeometry() const override
    {
        return Geometry{spec_.nf, spec_.outY(), spec_.outX()};
    }

    void forward(const Tensor &in, Tensor &out, ThreadPool &pool) override;
    void backward(const Tensor &in, const Tensor &out, const Tensor &eo,
                  Tensor &ei, ThreadPool &pool) override;
    void update(float learning_rate, ThreadPool &pool) override;

    /** BP-weights reads the saved input; the (possibly fused-ReLU)
     *  output is never revisited — its role in BP is carried by the
     *  byte mask the FP epilogue saved. */
    bool backwardUsesInput() const override { return true; }
    bool backwardUsesOutput() const override { return false; }

    /**
     * Fuse a trailing ReLU into this layer: FP applies ReLU in the
     * engine epilogue while each output tile is hot and saves a byte
     * activity mask; BP hands the mask to the engines so the
     * standalone ReLU-backward pass over the error tensor disappears.
     */
    void setFusedRelu(bool on) { fused_relu = on; }
    bool fusedRelu() const { return fused_relu; }

    bool hasParams() const override { return true; }
    std::int64_t paramCount() const override
    {
        return spec_.weightElems();
    }
    std::vector<Tensor *> params() override { return {&weights_}; }
    std::vector<Tensor *> grads() override { return {&dweights}; }
    void paramsUpdated() override;

    bool prunable() const override { return true; }
    void pruneToSparsity(double sparsity) override;
    double weightSparsity() const override;
    std::vector<std::uint8_t> *pruneMask() override
    {
        return &prune_mask;
    }

    /** Forward-only mode: the gradient accumulator is released and a
     *  fused ReLU runs as a plain clamp epilogue — no activity mask is
     *  allocated or stored, since no BP pass will ever read it. */
    void setInferenceOnly() override;

    const ConvSpec &spec() const { return spec_; }

    /** Engines currently deployed. */
    const EngineAssignment &engines() const { return assignment; }
    /** Deploy a new engine set (from the tuner or an experiment). */
    void setEngines(const EngineAssignment &engines);

    /** Sparsity of the most recent output-error gradients. */
    double lastErrorSparsity() const { return last_eo_sparsity; }

    /** Cumulative time spent per phase since construction, plus the
     *  hardware-counter deltas each phase accumulated (own thread +
     *  pool workers; empty samples when counters are unavailable).
     *  The counter reads ride the same span boundaries as the phase
     *  stopwatches, so time and traffic describe the same regions. */
    struct PhaseProfile
    {
        double fp_seconds = 0;
        double bp_data_seconds = 0;
        double bp_weights_seconds = 0;
        std::int64_t calls = 0;
        obs::PerfSample fp_perf;
        obs::PerfSample bp_data_perf;
        obs::PerfSample bp_weights_perf;
    };
    const PhaseProfile &profile() const { return profile_; }
    void resetProfile() { profile_ = PhaseProfile{}; }

    /** Direct weight access (tests, checkpointing). */
    Tensor &weights() { return weights_; }
    const Tensor &weights() const { return weights_; }
    const Tensor &weightGradients() const { return dweights; }

  private:
    const ConvEngine &engineByName(const std::string &name) const;
    void refreshSpanNames();

    std::string label;
    ConvSpec spec_;
    Tensor weights_;
    Tensor dweights;
    EngineAssignment assignment;
    bool fused_relu = false;
    bool inference_only = false;
    /** ReLU activity mask [B][Nf][Oy][Ox] saved by the FP epilogue. */
    std::vector<std::uint8_t> relu_mask;
    /** Magnitude-prune keep/drop mask over weights_ (empty = never
     *  pruned); re-applied after every SGD update. */
    std::vector<std::uint8_t> prune_mask;
    double last_eo_sparsity = 0;
    PhaseProfile profile_;
    std::map<std::string, std::unique_ptr<ConvEngine>> engine_cache;
    /** Interned trace span names ("conv1 FP [direct]"), refreshed on
     *  setEngines so spans carry the deployed engine. */
    const char *span_fp = nullptr;
    const char *span_bp_data = nullptr;
    const char *span_bp_weights = nullptr;
    obs::Gauge *eo_sparsity_gauge = nullptr;
};

} // namespace spg

#endif // SPG_NN_CONV_LAYER_HH
