#include "nn/conv_layer.hh"

#include <cmath>

#include "conv/weight_plans.hh"
#include "nn/pruning.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/timer.hh"

#include "util/logging.hh"

namespace spg {

namespace {

/** Counter snapshot of the phase-measuring thread plus the pool's
 *  worker totals — together they cover every byte a phase moves. */
obs::PerfSample
phasePerfSnapshot(ThreadPool &pool)
{
    obs::PerfSample s = obs::perfReadThread();
    s.accumulate(pool.perfTotals());
    return s;
}

} // namespace

ConvLayer::ConvLayer(std::string label, const ConvSpec &spec, Rng &rng)
    : label(std::move(label)),
      spec_(spec),
      weights_(Shape{spec.nf, spec.nc, spec.fy, spec.fx}),
      dweights(Shape{spec.nf, spec.nc, spec.fy, spec.fx})
{
    spec_.validate();
    // He initialization: stddev sqrt(2 / fan_in).
    float stddev = std::sqrt(
        2.0f / static_cast<float>(spec.nc * spec.fy * spec.fx));
    weights_.fillGaussian(rng, stddev);
    // Every registry engine that can apply to this geometry at some
    // pruning level (weight sparsity 1 is the most a schedule reaches);
    // the tuner narrows further with the layer's actual sparsity.
    for (auto &engine : makeEngines())
        if (engine->appliesTo(spec_, /*weight_sparsity=*/1.0))
            engine_cache[engine->name()] = std::move(engine);
    refreshSpanNames();
    eo_sparsity_gauge =
        &obs::Metrics::global().gauge("conv." + this->label +
                                      ".eo_sparsity");
    // A prior layer may have encoded weights at this freshly-reused
    // address; make sure no stale plan can alias the new tensor.
    WeightPlanCache::global().invalidate(weights_.data());
}

ConvLayer::~ConvLayer()
{
    WeightPlanCache::global().invalidate(weights_.data());
}

std::string
ConvLayer::name() const
{
    return label + " conv(" + spec_.str() + ")" +
           (fused_relu ? "+relu" : "");
}

const ConvEngine &
ConvLayer::engineByName(const std::string &name) const
{
    auto it = engine_cache.find(name);
    if (it == engine_cache.end())
        fatal("conv layer '%s': engine '%s' is unknown or does not "
              "apply to %s",
              label.c_str(), name.c_str(), spec_.str().c_str());
    return *it->second;
}

void
ConvLayer::setEngines(const EngineAssignment &engines)
{
    // Validate phase support eagerly so a bad plan fails loudly.
    if (!engineByName(engines.fp).supports(Phase::Forward))
        fatal("engine '%s' cannot run FP", engines.fp.c_str());
    if (!engineByName(engines.bp_data).supports(Phase::BackwardData))
        fatal("engine '%s' cannot run BP-data", engines.bp_data.c_str());
    if (!engineByName(engines.bp_weights)
             .supports(Phase::BackwardWeights)) {
        fatal("engine '%s' cannot run BP-weights",
              engines.bp_weights.c_str());
    }
    assignment = engines;
    refreshSpanNames();
}

void
ConvLayer::refreshSpanNames()
{
    span_fp = obs::internName(label + " FP [" + assignment.fp + "]");
    span_bp_data =
        obs::internName(label + " BP-data [" + assignment.bp_data + "]");
    span_bp_weights = obs::internName(label + " BP-weights [" +
                                      assignment.bp_weights + "]");
}

void
ConvLayer::forward(const Tensor &in, Tensor &out, ThreadPool &pool)
{
    std::int64_t batch = in.shape()[0];
    SPG_TRACE_SCOPE_N("layer", span_fp, "batch", batch);
    static obs::Counter &flops =
        obs::Metrics::global().counter("conv.fp_flops");
    flops.add(spec_.flops() * batch);
    Stopwatch watch;
    Epilogue epilogue;
    if (fused_relu) {
        if (inference_only) {
            // No BP pass will read the activity mask: clamp in the
            // epilogue while the tile is hot and store nothing.
            epilogue = Epilogue{Epilogue::Kind::Relu};
        } else {
            relu_mask.resize(static_cast<std::size_t>(batch) *
                             spec_.outputElems());
            epilogue =
                Epilogue{Epilogue::Kind::ReluMask, relu_mask.data()};
        }
        static obs::Counter &fused_passes =
            obs::Metrics::global().counter("nn.fused_relu_passes");
        fused_passes.add();
    }
    const bool perf_on = obs::perfEnabled();
    obs::PerfSample perf0;
    if (perf_on)
        perf0 = phasePerfSnapshot(pool);
    engineByName(assignment.fp)
        .forward(spec_, in, weights_, out, pool, epilogue);
    profile_.fp_seconds += watch.seconds();
    if (perf_on)
        profile_.fp_perf.accumulate(
            phasePerfSnapshot(pool).delta(perf0));
    ++profile_.calls;
}

void
ConvLayer::backward(const Tensor &in, const Tensor &, const Tensor &eo,
                    Tensor &ei, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    std::int64_t batch = eo.shape()[0];
    BpMask mask;
    if (fused_relu) {
        SPG_ASSERT(relu_mask.size() ==
                   static_cast<std::size_t>(eo.size()));
        mask.mask = relu_mask.data();
    }
    // The sparsity the BP engines see is POST-mask: an element is live
    // only where the fused ReLU (if any) kept it and eo is non-zero.
    // `1 - live/size` and `(size - live)/size` can differ in the last
    // bit; each path keeps its own form (the unfused one is
    // Tensor::sparsity's) because re-tune decisions read this value.
    const std::int64_t live =
        liveCount(eo.data(), mask.mask, eo.size(), pool);
    const double size = static_cast<double>(eo.size());
    if (eo.size() == 0)
        last_eo_sparsity = 0.0;
    else if (fused_relu)
        last_eo_sparsity = 1.0 - static_cast<double>(live) / size;
    else
        last_eo_sparsity = static_cast<double>(eo.size() - live) / size;
    eo_sparsity_gauge->set(last_eo_sparsity);
    static obs::Counter &nnz =
        obs::Metrics::global().counter("conv.eo_nnz");
    nnz.add(static_cast<std::int64_t>(
        (1.0 - last_eo_sparsity) * static_cast<double>(eo.size())));
    static obs::Counter &bp_flops =
        obs::Metrics::global().counter("conv.bp_flops");
    bp_flops.add(2 * spec_.flops() * batch);
    const bool perf_on = obs::perfEnabled();
    obs::PerfSample perf0;
    Stopwatch watch;
    {
        SPG_TRACE_SCOPE_N("layer", span_bp_data, "batch", batch);
        if (perf_on)
            perf0 = phasePerfSnapshot(pool);
        engineByName(assignment.bp_data)
            .backwardData(spec_, eo, weights_, ei, pool, mask);
    }
    profile_.bp_data_seconds += watch.seconds();
    if (perf_on)
        profile_.bp_data_perf.accumulate(
            phasePerfSnapshot(pool).delta(perf0));
    watch.reset();
    {
        SPG_TRACE_SCOPE_N("layer", span_bp_weights, "batch", batch);
        if (perf_on)
            perf0 = phasePerfSnapshot(pool);
        engineByName(assignment.bp_weights)
            .backwardWeights(spec_, eo, in, dweights, pool, mask);
    }
    profile_.bp_weights_seconds += watch.seconds();
    if (perf_on)
        profile_.bp_weights_perf.accumulate(
            phasePerfSnapshot(pool).delta(perf0));
}

void
ConvLayer::update(float learning_rate, ThreadPool &pool)
{
    SPG_ASSERT(!inference_only);
    // Re-prune in the same pass: the SGD step revives masked weights;
    // zeroing them again keeps the layer at its scheduled sparsity
    // between prune steps.
    pool.parallelFor(weights_.size(),
                     [&](std::int64_t begin, std::int64_t end, int) {
                         sgdStep(weights_.data(), dweights.data(),
                                 prune_mask, learning_rate, begin, end);
                     });
    WeightPlanCache::global().invalidate(weights_.data());
}

void
ConvLayer::paramsUpdated()
{
    WeightPlanCache::global().invalidate(weights_.data());
}

void
ConvLayer::setInferenceOnly()
{
    inference_only = true;
    dweights = Tensor();
    relu_mask.clear();
    relu_mask.shrink_to_fit();
}

void
ConvLayer::pruneToSparsity(double sparsity)
{
    magnitudePrune(weights_, sparsity, prune_mask);
    obs::Metrics::global()
        .gauge("conv." + label + ".weight_sparsity")
        .set(weightSparsity());
    paramsUpdated();
}

double
ConvLayer::weightSparsity() const
{
    return weights_.sparsity();
}

} // namespace spg
