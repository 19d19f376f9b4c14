#include "nn/fc_layer.hh"

#include <cmath>

#include "blas/gemm.hh"
#include "nn/pruning.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace spg {

FcLayer::FcLayer(Geometry geometry, std::int64_t outputs, Rng &rng)
    : geom(geometry),
      outputs(outputs),
      weights(Shape{outputs, geometry.elems()}),
      bias(Shape{outputs}),
      dweights(Shape{outputs, geometry.elems()}),
      dbias(Shape{outputs}),
      weights_t(static_cast<std::size_t>(
          packedNtElems(outputs, geometry.elems())))
{
    if (outputs <= 0)
        fatal("fc layer needs a positive output count");
    float stddev =
        std::sqrt(2.0f / static_cast<float>(geometry.elems()));
    weights.fillGaussian(rng, stddev);
}

std::string
FcLayer::name() const
{
    return "fc(" + std::to_string(geom.elems()) + "->" +
           std::to_string(outputs) + ")" + (fused_relu ? "+relu" : "");
}

void
FcLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t batch = in.shape()[0];
    std::int64_t d = geom.elems();
    if (weights_t_stale) {
        pool.parallelFor(d, [&](std::int64_t p0, std::int64_t p1, int) {
            packNtColumns(weights.data(), outputs, d, p0, p1,
                          weights_t.data());
        });
        weights_t_stale = false;
    }
    // out[B x outputs] = in[B x D] * W^T[D x outputs].
    gemmNtPacked(pool, batch, outputs, d, in.data(), weights_t.data(),
                 out.data());
    float *o = out.data();
    if (fused_relu && inference_only) {
        // Forward-only: clamp in the bias epilogue, store no mask.
        for (std::int64_t b = 0; b < batch; ++b) {
            for (std::int64_t j = 0; j < outputs; ++j) {
                std::int64_t idx = b * outputs + j;
                float v = o[idx] + bias[j];
                o[idx] = v > 0.0f ? v : 0.0f;
            }
        }
        static obs::Counter &fused_passes =
            obs::Metrics::global().counter("nn.fused_relu_passes");
        fused_passes.add();
    } else if (fused_relu) {
        // ReLU fused into the bias epilogue: clamp while the row is
        // hot and save the activity mask the BP staging will use.
        relu_mask.resize(static_cast<std::size_t>(batch) * outputs);
        std::uint8_t *m = relu_mask.data();
        for (std::int64_t b = 0; b < batch; ++b) {
            for (std::int64_t j = 0; j < outputs; ++j) {
                std::int64_t idx = b * outputs + j;
                float v = o[idx] + bias[j];
                bool live = v > 0.0f;
                m[idx] = live;
                o[idx] = live ? v : 0.0f;
            }
        }
        static obs::Counter &fused_passes =
            obs::Metrics::global().counter("nn.fused_relu_passes");
        fused_passes.add();
    } else {
        for (std::int64_t b = 0; b < batch; ++b)
            for (std::int64_t j = 0; j < outputs; ++j)
                o[b * outputs + j] += bias[j];
    }
}

void
FcLayer::backward(const Tensor &in, const Tensor &, const Tensor &eo,
                  Tensor &ei, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    std::int64_t batch = in.shape()[0];
    std::int64_t d = geom.elems();
    const float *go = eo.data();
    if (fused_relu) {
        // Stage (mask ? eo : 0) ONCE; the three gradient consumers all
        // read the staged copy, so the standalone relu-backward pass
        // over the error tensor disappears.
        SPG_ASSERT(relu_mask.size() ==
                   static_cast<std::size_t>(eo.size()));
        if (masked_eo.shape() != eo.shape())
            masked_eo = Tensor::uninitialized(eo.shape());
        float *dst = masked_eo.data();
        const std::uint8_t *m = relu_mask.data();
        for (std::int64_t i = 0; i < eo.size(); ++i)
            dst[i] = m[i] ? go[i] : 0.0f;
        go = dst;
    }
    // ei[B x D] = eo[B x outputs] * W[outputs x D].
    parallelGemm(pool, Trans::No, Trans::No, batch, d, outputs, go,
                 weights.data(), 0.0f, ei.data());
    // dW[outputs x D] = eo^T[outputs x B] * in[B x D].
    parallelGemm(pool, Trans::Yes, Trans::No, outputs, d, batch, go,
                 in.data(), 0.0f, dweights.data());
    // dbias[j] = sum_b eo[b][j].
    dbias.zero();
    for (std::int64_t b = 0; b < batch; ++b)
        for (std::int64_t j = 0; j < outputs; ++j)
            dbias[j] += go[b * outputs + j];
}

void
FcLayer::setInferenceOnly()
{
    inference_only = true;
    dweights = Tensor();
    dbias = Tensor();
    masked_eo = Tensor();
    relu_mask.clear();
    relu_mask.shrink_to_fit();
}

void
FcLayer::update(float learning_rate, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    // Split over the D columns of W: each worker steps (and re-prunes,
    // keeping masked weights exactly zero) its columns of every output
    // row, then writes the same columns of W^T while they are hot.
    std::int64_t d = geom.elems();
    pool.parallelFor(d, [&](std::int64_t p0, std::int64_t p1, int) {
        for (std::int64_t j = 0; j < outputs; ++j)
            sgdStep(weights.data(), dweights.data(), prune_mask,
                    learning_rate, j * d + p0, j * d + p1);
        packNtColumns(weights.data(), outputs, d, p0, p1,
                      weights_t.data());
    });
    weights_t_stale = false;
    for (std::int64_t j = 0; j < outputs; ++j)
        bias[j] = sgdFma(bias[j], dbias[j], learning_rate);
}

void
FcLayer::pruneToSparsity(double sparsity)
{
    magnitudePrune(weights, sparsity, prune_mask);
    paramsUpdated();
}

double
FcLayer::weightSparsity() const
{
    return weights.sparsity();
}

SoftmaxLayer::SoftmaxLayer(Geometry geometry) : geom(geometry)
{
    if (geom.h != 1 || geom.w != 1)
        fatal("softmax expects a flat input, got %s", geom.str().c_str());
}

void
SoftmaxLayer::setLabels(const std::vector<int> &batch_labels)
{
    labels = batch_labels;
}

void
SoftmaxLayer::forward(const Tensor &in, Tensor &out, ThreadPool &)
{
    std::int64_t batch = in.shape()[0];
    std::int64_t classes = geom.c;
    double loss_sum = 0;
    std::int64_t correct = 0;
    bool have_labels =
        labels.size() == static_cast<std::size_t>(batch);

    for (std::int64_t b = 0; b < batch; ++b) {
        const float *logits = in.data() + b * classes;
        float *probs = out.data() + b * classes;
        float max_logit = logits[0];
        std::int64_t arg = 0;
        for (std::int64_t j = 1; j < classes; ++j) {
            if (logits[j] > max_logit) {
                max_logit = logits[j];
                arg = j;
            }
        }
        double denom = 0;
        for (std::int64_t j = 0; j < classes; ++j) {
            probs[j] = std::exp(logits[j] - max_logit);
            denom += probs[j];
        }
        for (std::int64_t j = 0; j < classes; ++j)
            probs[j] = static_cast<float>(probs[j] / denom);
        if (have_labels) {
            int label = labels[b];
            SPG_ASSERT(label >= 0 && label < classes);
            loss_sum -= std::log(
                std::max(static_cast<double>(probs[label]), 1e-12));
            correct += (arg == label);
        }
    }
    if (have_labels) {
        last_loss = loss_sum / batch;
        last_accuracy = static_cast<double>(correct) / batch;
    }
}

void
SoftmaxLayer::backward(const Tensor &, const Tensor &out, const Tensor &,
                       Tensor &ei, ThreadPool &)
{
    std::int64_t batch = out.shape()[0];
    std::int64_t classes = geom.c;
    if (labels.size() != static_cast<std::size_t>(batch))
        fatal("softmax backward without labels for the current batch");
    float scale = 1.0f / static_cast<float>(batch);
    for (std::int64_t b = 0; b < batch; ++b) {
        const float *probs = out.data() + b * classes;
        float *g = ei.data() + b * classes;
        for (std::int64_t j = 0; j < classes; ++j)
            g[j] = probs[j] * scale;
        g[labels[b]] -= scale;
    }
}

} // namespace spg
