/**
 * @file
 * Fully-connected layer and the softmax + cross-entropy head.
 */

#ifndef SPG_NN_FC_LAYER_HH
#define SPG_NN_FC_LAYER_HH

#include <cstdint>
#include <vector>

#include "nn/layer.hh"
#include "util/aligned.hh"
#include "util/random.hh"

namespace spg {

/**
 * Dense layer: out[b] = W * flatten(in[b]) + bias. Implemented with
 * the spg-CNN SGEMM (one batched MM per phase). FP multiplies by a
 * W^T the layer keeps packed (gemmNtPacked), written once per weight
 * version: by update() in its SGD pass, otherwise by the next
 * forward() after construction, paramsUpdated() or pruneToSparsity().
 */
class FcLayer : public Layer
{
  public:
    /**
     * @param geometry Input geometry (flattened to c*h*w).
     * @param outputs Output neuron count.
     * @param rng Weight initialization source.
     */
    FcLayer(Geometry geometry, std::int64_t outputs, Rng &rng);

    std::string name() const override;
    Geometry inputGeometry() const override { return geom; }
    Geometry outputGeometry() const override
    {
        return Geometry{outputs, 1, 1};
    }

    void forward(const Tensor &in, Tensor &out, ThreadPool &pool) override;
    void backward(const Tensor &in, const Tensor &out, const Tensor &eo,
                  Tensor &ei, ThreadPool &pool) override;
    void update(float learning_rate, ThreadPool &pool) override;

    /** BP-weights needs the saved input; the output (possibly already
     *  ReLU-clamped in the fused bias epilogue) is never re-read. */
    bool backwardUsesInput() const override { return true; }
    bool backwardUsesOutput() const override { return false; }

    /**
     * Fuse a trailing ReLU: forward clamps inside the bias epilogue
     * while each row is hot and saves a byte activity mask; backward
     * stages the masked error once and feeds it to all three gradient
     * consumers, eliminating the standalone elementwise passes.
     */
    void setFusedRelu(bool on) { fused_relu = on; }
    bool fusedRelu() const { return fused_relu; }

    bool hasParams() const override { return true; }
    std::int64_t paramCount() const override
    {
        return weights.size() + bias.size();
    }
    std::vector<Tensor *> params() override
    {
        return {&weights, &bias};
    }
    std::vector<Tensor *> grads() override
    {
        return {&dweights, &dbias};
    }
    void paramsUpdated() override { weights_t_stale = true; }

    bool prunable() const override { return true; }
    void pruneToSparsity(double sparsity) override;
    double weightSparsity() const override;
    std::vector<std::uint8_t> *pruneMask() override
    {
        return &prune_mask;
    }

    /** Forward-only mode: gradient accumulators and the masked-error
     *  staging buffer are released; a fused ReLU clamps in the bias
     *  epilogue without saving the activity mask. */
    void setInferenceOnly() override;

  private:
    Geometry geom;
    std::int64_t outputs;
    bool inference_only = false;
    Tensor weights;   ///< [outputs][D]
    Tensor bias;      ///< [outputs]
    Tensor dweights;  ///< gradient accumulator
    Tensor dbias;
    /** W packed as B^T for gemmNtPacked, [ceil(outputs/16)][D][16];
     *  allocated zeroed, so its pad lanes are. */
    AlignedBuffer<float> weights_t;
    /** W changed since weights_t was last written. */
    bool weights_t_stale = true;
    bool fused_relu = false;
    /** ReLU activity mask [B][outputs] saved by the fused forward. */
    std::vector<std::uint8_t> relu_mask;
    /** Staged (mask ? eo : 0), shared by the three BP consumers. */
    Tensor masked_eo;
    /** Magnitude-prune keep/drop mask over weights (bias never
     *  pruned); re-applied after every SGD update. */
    std::vector<std::uint8_t> prune_mask;
};

/**
 * Softmax with implicit cross-entropy loss. forward() produces class
 * probabilities; after setLabels(), backward() emits the fused
 * (prob - onehot) / B gradient, and loss()/accuracy() report on the
 * last forward batch.
 */
class SoftmaxLayer : public Layer
{
  public:
    explicit SoftmaxLayer(Geometry geometry);

    std::string name() const override { return "softmax"; }
    Geometry inputGeometry() const override { return geom; }
    Geometry outputGeometry() const override { return geom; }

    /** Set the target labels of the CURRENT minibatch (size B). */
    void setLabels(const std::vector<int> &labels);

    void forward(const Tensor &in, Tensor &out, ThreadPool &pool) override;
    void backward(const Tensor &in, const Tensor &out, const Tensor &eo,
                  Tensor &ei, ThreadPool &pool) override;

    /** backward() reads only the saved probabilities (out) and the
     *  labels; the logits (in) and the dummy eo are ignored. */
    bool backwardUsesInput() const override { return false; }
    bool backwardUsesOutput() const override { return true; }

    /** Mean cross-entropy of the last forward() batch. */
    double loss() const { return last_loss; }
    /** Top-1 accuracy of the last forward() batch. */
    double accuracy() const { return last_accuracy; }

  private:
    Geometry geom;
    std::vector<int> labels;
    double last_loss = 0;
    double last_accuracy = 0;
};

} // namespace spg

#endif // SPG_NN_FC_LAYER_HH
