#include "nn/network.hh"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace spg {

Network::Network(const NetConfig &config, std::uint64_t seed,
                 bool inference_only)
    : inference_only_(inference_only)
{
    input_geom = Geometry{config.channels, config.height, config.width};
    Rng rng(seed);
    Geometry geom = input_geom;
    int conv_index = 0;

    NetConfig cfg = config;
    if (cfg.layers.empty() || cfg.layers.back().kind != LayerKind::Softmax)
        cfg.layers.push_back(LayerConfig{LayerKind::Softmax, "", 0, 0, 1,
                                         0});

    for (const auto &lc : cfg.layers) {
        switch (lc.kind) {
          case LayerKind::Conv: {
            if (lc.features <= 0 || lc.kernel <= 0)
                fatal("net '%s': conv layer needs features and kernel",
                      cfg.name.c_str());
            ConvSpec spec{geom.w, geom.h, geom.c, lc.features, lc.kernel,
                          lc.kernel, lc.stride, lc.stride};
            if (!spec.valid())
                fatal("net '%s': conv %s does not fit input %s",
                      cfg.name.c_str(), spec.str().c_str(),
                      geom.str().c_str());
            std::string label = lc.name.empty()
                                    ? "conv" + std::to_string(conv_index)
                                    : lc.name;
            ++conv_index;
            layers.push_back(
                std::make_unique<ConvLayer>(label, spec, rng));
            break;
          }
          case LayerKind::Relu: {
            // Epilogue fusion: a ReLU directly after a conv or fc layer
            // is applied inside that layer (while the output tile is
            // still hot) instead of as a standalone elementwise pass.
            // Bit-for-bit identical, including the BP gating.
            if (cfg.fuse_epilogues && !layers.empty()) {
                if (auto *conv =
                        dynamic_cast<ConvLayer *>(layers.back().get())) {
                    conv->setFusedRelu(true);
                    ++fused_pairs;
                    break;
                }
                if (auto *fc =
                        dynamic_cast<FcLayer *>(layers.back().get())) {
                    fc->setFusedRelu(true);
                    ++fused_pairs;
                    break;
                }
            }
            layers.push_back(std::make_unique<ReluLayer>(geom));
            break;
          }
          case LayerKind::MaxPool:
          case LayerKind::AvgPool: {
            if (lc.kernel <= 0)
                fatal("net '%s': pool layer needs a kernel",
                      cfg.name.c_str());
            auto mode = lc.kind == LayerKind::MaxPool
                            ? PoolLayer::Mode::Max
                            : PoolLayer::Mode::Avg;
            layers.push_back(std::make_unique<PoolLayer>(
                geom, lc.kernel, lc.stride, mode));
            break;
          }
          case LayerKind::Fc: {
            std::int64_t outputs =
                lc.outputs > 0 ? lc.outputs : cfg.classes;
            if (outputs <= 0)
                fatal("net '%s': fc layer needs outputs (or a global "
                      "classes count)",
                      cfg.name.c_str());
            layers.push_back(
                std::make_unique<FcLayer>(geom, outputs, rng));
            break;
          }
          case LayerKind::Softmax:
            layers.push_back(std::make_unique<SoftmaxLayer>(geom));
            break;
        }
        geom = layers.back()->outputGeometry();
    }

    head = dynamic_cast<SoftmaxLayer *>(layers.back().get());
    SPG_ASSERT(head != nullptr);

    if (inference_only_) {
        for (auto &layer : layers)
            layer->setInferenceOnly();
    }
}

void
Network::ensureBuffers(std::int64_t batch)
{
    // The plan (slots + slabs) is kept as long as it is big enough:
    // a smaller batch only needs its views rebuilt, since every
    // buffer shape is linear in the batch extent. reserveBatch() can
    // pre-size the plan so ragged serving batches never re-plan.
    if (plan_batch_ < batch)
        planArena(std::max(batch, reserve_batch_));
    if (view_batch_ != batch)
        buildViews(batch);
}

void
Network::reserveBatch(std::int64_t max_batch)
{
    SPG_ASSERT(max_batch >= 1);
    reserve_batch_ = std::max(reserve_batch_, max_batch);
    ensureBuffers(max_batch);
}

void
Network::planArena(std::int64_t batch)
{
    acts.clear();
    errs.clear();
    arena_slabs.clear();
    buf_plans_.clear();
    view_batch_ = 0;
    plan_batch_ = batch;

    // Liveness-planned activation arena. Logical buffer b < L is
    // acts[b] (output of layer b); buffer L + i is errs[i] (error
    // w.r.t. layer i's input, errs[L] being the head's dummy eo).
    // Timeline: layer i runs FP at step i and BP at step 2L-1-i, so a
    // whole training step spans steps [0, 2L-1]. Each buffer gets an
    // inclusive [start, end] live interval from the layers' declared
    // BP reads, aliasable in-place layers are merged, and the
    // surviving root buffers are first-fit packed into reusable slabs.
    //
    // Forward-only networks plan the FP prefix alone: no error
    // buffers exist, no BP mirror steps extend the activation
    // intervals, and an elementwise layer can always run in place
    // (nothing ever revisits its operands), so the packing collapses
    // to a ping-pong of the two largest neighbouring activations.
    const std::int64_t L = static_cast<std::int64_t>(layers.size());
    struct Buf
    {
        Shape shape;
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t root = -1;  ///< alias target; -1 = self
        std::int64_t slot = -1;
    };
    const std::int64_t nbufs = inference_only_ ? L : 2 * L + 1;
    std::vector<Buf> bufs(static_cast<std::size_t>(nbufs));

    for (std::int64_t i = 0; i < L; ++i) {
        Geometry og = layers[i]->outputGeometry();
        bufs[i].shape = Shape{batch, og.c, og.h, og.w};
        bufs[i].start = i;
        std::int64_t end = i;
        if (i + 1 < L) {
            end = std::max(end, i + 1);  // next layer's FP input
            if (!inference_only_ && layers[i + 1]->backwardUsesInput())
                end = std::max(end, 2 * L - 2 - i);
        }
        if (!inference_only_ && layers[i]->backwardUsesOutput())
            end = std::max(end, 2 * L - 1 - i);
        // The last activation (class probabilities) is returned to the
        // caller: pin it past the timeline so it is never recycled.
        if (i == L - 1)
            end = inference_only_ ? L + 1 : 2 * L;
        bufs[i].end = end;
    }
    if (!inference_only_) {
        bufs[L].shape =
            Shape{batch, input_geom.c, input_geom.h, input_geom.w};
        bufs[L].start = 2 * L - 1;  // written by layer 0's BP, never read
        bufs[L].end = 2 * L - 1;
        for (std::int64_t i = 1; i <= L; ++i) {
            Geometry og = layers[i - 1]->outputGeometry();
            bufs[L + i].shape = Shape{batch, og.c, og.h, og.w};
            if (i == L) {
                // Dummy eo handed to the head at its BP step; never
                // written.
                bufs[L + i].start = L;
                bufs[L + i].end = L;
            } else {
                bufs[L + i].start = 2 * L - 1 - i;  // written by layer i
                bufs[L + i].end = 2 * L - i;  // read by layer i-1 BP
            }
        }
    }

    // In-place merging: an elementwise layer whose BP needs neither its
    // input nor the previous layer's output (e.g. an unfused ReLU after
    // a pool) runs with out aliasing in and ei aliasing eo. Without a
    // BP pass the aliasing is unconditionally safe.
    auto rootOf = [&](std::int64_t b) {
        while (bufs[b].root >= 0)
            b = bufs[b].root;
        return b;
    };
    auto mergeInto = [&](std::int64_t victim, std::int64_t target) {
        victim = rootOf(victim);
        target = rootOf(target);
        if (victim == target)
            return;
        bufs[target].start = std::min(bufs[target].start,
                                      bufs[victim].start);
        bufs[target].end = std::max(bufs[target].end, bufs[victim].end);
        bufs[victim].root = target;
    };
    for (std::int64_t i = 1; i < L; ++i) {
        if (!layers[i]->inPlaceCapable())
            continue;
        if (inference_only_) {
            mergeInto(i, i - 1);  // acts[i] aliases acts[i-1]
        } else if (!layers[i]->backwardUsesInput() &&
                   !layers[i - 1]->backwardUsesOutput()) {
            mergeInto(i, i - 1);          // acts[i] aliases acts[i-1]
            mergeInto(L + i, L + i + 1);  // errs[i] aliases errs[i+1]
        }
    }

    // Greedy first-fit interval packing of the root buffers into slots.
    struct Slot
    {
        std::int64_t end = -1;
        std::int64_t elems = 0;
    };
    std::vector<Slot> slots;
    std::vector<std::int64_t> roots;
    for (std::int64_t b = 0; b < nbufs; ++b)
        if (bufs[b].root < 0)
            roots.push_back(b);
    std::sort(roots.begin(), roots.end(),
              [&](std::int64_t a, std::int64_t b) {
                  return bufs[a].start != bufs[b].start
                             ? bufs[a].start < bufs[b].start
                             : a < b;
              });
    for (std::int64_t b : roots) {
        std::int64_t chosen = -1;
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (slots[s].end < bufs[b].start) {
                chosen = static_cast<std::int64_t>(s);
                break;
            }
        }
        if (chosen < 0) {
            chosen = static_cast<std::int64_t>(slots.size());
            slots.push_back(Slot{});
        }
        slots[chosen].end = bufs[b].end;
        slots[chosen].elems =
            std::max(slots[chosen].elems, bufs[b].shape.elements());
        bufs[b].slot = chosen;
    }

    // Back the slots with uninitialized slabs (every buffer is fully
    // defined by its producer before any consumer reads it). Aliased
    // buffers resolve to their root's slot.
    arena_slabs.reserve(slots.size());
    arena_bytes_ = 0;
    for (const Slot &slot : slots) {
        arena_slabs.emplace_back(kUninit,
                                 static_cast<std::size_t>(slot.elems));
        arena_bytes_ +=
            slot.elems * static_cast<std::int64_t>(sizeof(float));
    }
    arena_unplanned_bytes_ = 0;
    for (const Buf &buf : bufs)
        arena_unplanned_bytes_ += buf.shape.elements() *
                                  static_cast<std::int64_t>(sizeof(float));

    // Record the per-buffer plan buildViews() rebuilds views from:
    // per-image geometry + resolved slot. Shapes are
    // linear in batch, so the same plan serves every batch <= ours.
    buf_plans_.resize(static_cast<std::size_t>(nbufs));
    for (std::int64_t b = 0; b < nbufs; ++b) {
        BufPlan &plan = buf_plans_[static_cast<std::size_t>(b)];
        if (b < L) {
            plan.geom = layers[b]->outputGeometry();
        } else if (b == L) {
            plan.geom = input_geom;
        } else {
            plan.geom = layers[b - L - 1]->outputGeometry();
        }
        plan.slot = bufs[rootOf(b)].slot;
    }

    obs::Metrics::global().gauge("nn.arena_bytes").set(
        static_cast<double>(arena_bytes_));
    obs::Metrics::global().gauge("nn.arena_unplanned_bytes").set(
        static_cast<double>(arena_unplanned_bytes_));
}

void
Network::buildViews(std::int64_t batch)
{
    SPG_ASSERT(batch >= 1 && batch <= plan_batch_);
    const std::int64_t L = static_cast<std::int64_t>(layers.size());
    acts.clear();
    errs.clear();
    auto viewOf = [&](std::int64_t b) {
        const BufPlan &plan = buf_plans_[static_cast<std::size_t>(b)];
        return Tensor::view(
            Shape{batch, plan.geom.c, plan.geom.h, plan.geom.w},
            arena_slabs[plan.slot].data());
    };
    for (std::int64_t i = 0; i < L; ++i)
        acts.push_back(viewOf(i));
    if (!inference_only_) {
        for (std::int64_t i = 0; i <= L; ++i)
            errs.push_back(viewOf(L + i));
    }
    view_batch_ = batch;
}

const Tensor &
Network::forward(const Tensor &images, ThreadPool &pool)
{
    std::int64_t batch = images.shape()[0];
    Shape want{batch, input_geom.c, input_geom.h, input_geom.w};
    if (images.shape() != want)
        fatal("network expects input %s, got %s", want.str().c_str(),
              images.shape().str().c_str());
    ensureBuffers(batch);
    SPG_TRACE_SCOPE_N("train", "forward", "batch", batch);
    const Tensor *in = &images;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        layers[i]->forward(*in, acts[i], pool);
        in = &acts[i];
    }
    return acts.back();
}

StepStats
Network::trainStep(const Tensor &images, const std::vector<int> &labels,
                   float learning_rate, ThreadPool &pool)
{
    SPG_TRACE_SCOPE_N("train", "step", "batch", images.shape()[0]);
    StepStats stats = forwardBackward(images, labels, pool);
    applyUpdate(learning_rate);
    return stats;
}

StepStats
Network::forwardBackward(const Tensor &images,
                         const std::vector<int> &labels, ThreadPool &pool,
                         const BackwardHook &hook)
{
    if (inference_only_)
        fatal("forwardBackward() on a forward-only network");
    auto step_start = std::chrono::steady_clock::now();
    update_pool_ = &pool;
    head->setLabels(labels);
    forward(images, pool);

    // errs[i] is the gradient w.r.t. layer i's INPUT; the softmax head
    // consumes no upstream gradient (errs.back() is a dummy).
    {
        SPG_TRACE_SCOPE("train", "backward");
        for (std::size_t i = layers.size(); i-- > 0;) {
            const Tensor &in = i == 0 ? images : acts[i - 1];
            layers[i]->backward(in, acts[i], errs[i + 1], errs[i], pool);
            if (hook) {
                std::chrono::duration<double> ready =
                    std::chrono::steady_clock::now() - step_start;
                hook(i, *layers[i], ready.count());
            }
        }
    }
    return StepStats{head->loss(), head->accuracy()};
}

void
Network::applyUpdate(float learning_rate)
{
    if (update_pool_ == nullptr)
        fatal("applyUpdate() without a preceding forwardBackward(): the "
              "SGD update runs on that call's pool");
    SPG_TRACE_SCOPE("train", "update");
    for (auto &layer : layers)
        layer->update(learning_rate, *update_pool_);
}

double
Network::evalAccuracy(const Tensor &images, const std::vector<int> &labels,
                      ThreadPool &pool)
{
    head->setLabels(labels);
    forward(images, pool);
    return head->accuracy();
}

std::vector<ConvLayer *>
Network::convLayers()
{
    std::vector<ConvLayer *> convs;
    for (auto &layer : layers) {
        if (auto *conv = dynamic_cast<ConvLayer *>(layer.get()))
            convs.push_back(conv);
    }
    return convs;
}

std::int64_t
Network::paramCount() const
{
    std::int64_t total = 0;
    for (const auto &layer : layers)
        total += layer->paramCount();
    return total;
}

void
Network::describe() const
{
    Geometry geom = input_geom;
    inform("network input: %s", geom.str().c_str());
    for (const auto &layer : layers) {
        Geometry og = layer->outputGeometry();
        inform("  %-28s %s -> %s", layer->name().c_str(),
               layer->inputGeometry().str().c_str(), og.str().c_str());
        geom = og;
    }
    inform("  trainable parameters: %lld",
           static_cast<long long>(paramCount()));
}

} // namespace spg
