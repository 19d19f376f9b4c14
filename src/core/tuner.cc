#include "core/tuner.hh"

#include <cmath>
#include <limits>

#include "conv/weight_plans.hh"
#include "obs/metrics.hh"
#include "obs/perfcnt.hh"
#include "obs/trace.hh"
#include "sparse/sparse_plan.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/timer.hh"

namespace spg {

const std::string &
LayerPlan::enginesFor(Phase phase) const
{
    switch (phase) {
      case Phase::Forward:
        return fp_engine;
      case Phase::BackwardData:
        return bp_data_engine;
      case Phase::BackwardWeights:
        return bp_weights_engine;
    }
    panic("unknown phase");
}

Tuner::Tuner(TunerOptions options)
    : opts(options), engines(makeEngines())
{
    if (opts.reps < 1 || opts.batch < 1)
        fatal("tuner needs reps >= 1 and batch >= 1");
}

EngineTiming
Tuner::measure(const ConvEngine &engine, Phase phase, const ConvSpec &spec,
               const Tensor &in, const Tensor &weights, const Tensor &eo,
               ThreadPool &pool, bool fused_relu, bool serving,
               bool cold_plan) const
{
    std::int64_t batch = in.shape()[0];
    EngineTiming timing;
    timing.engine = engine.name();
    SPG_TRACE_SCOPE_N(
        "tuner",
        obs::internName("measure " + timing.engine + " " +
                        phaseName(phase)),
        "batch", batch);
    obs::Metrics::global().counter("tuner.measurements").add();

    // The encode-once sparse engine keys its CT-CSR plan on the error
    // tensor. In training every minibatch overwrites EO, so BP-data
    // re-encodes and the BP-weights call that follows hits the plan.
    // Reproduce that here: drop the plan before each BP-data rep (so
    // the encode is charged to BP-data, not hidden by bestTimeSeconds'
    // min over warm reps) and leave it warm for BP-weights — unless
    // BP-data deploys another engine, when training's BP-weights
    // encodes every minibatch itself and pays for it here too.
    bool encode_once = engine.name() == "sparse";
    SparsePlanCache &plans = SparsePlanCache::global();
    SparsePlanCache::Stats before = plans.stats();
    // The CSR-weights FP engine encodes once per WEIGHT VERSION, not
    // per call: production amortizes the encode across a whole prune
    // interval, so the timed reps below run warm and the encode is
    // measured separately by one cold call up front.
    bool wsparse_once = phase == Phase::Forward &&
                        engine.name() == "sparse-weights-direct";
    PoolStats sched_before = pool.stats();

    // When the layer will run with a fused ReLU, measure that path: FP
    // pays the epilogue clamp + mask store, BP pays the mask staging.
    // The BP mask matches the nonzeros of EO so the effective sparsity
    // the engines see is unchanged by the gating.
    std::vector<std::uint8_t> mask;
    if (fused_relu && phase != Phase::Forward) {
        mask.resize(static_cast<std::size_t>(eo.size()));
        const float *go = eo.data();
        for (std::int64_t i = 0; i < eo.size(); ++i)
            mask[i] = go[i] != 0.0f;
    }
    BpMask bp_mask;
    if (!mask.empty())
        bp_mask.mask = mask.data();

    // Wrap the main timed block with counter reads: own-thread delta
    // (serial shares + participate(0)) plus the pool workers' totals
    // delta covers every byte the phase moved. Normalized per call
    // over warmup + reps — the warmup's cold misses smear in, which
    // is the price of not perturbing bestTimeSeconds.
    auto timedWithPerf = [&](auto &&fn) {
        const bool perf_on = obs::perfEnabled();
        obs::PerfSample own0, pool0;
        if (perf_on) {
            own0 = obs::perfReadThread();
            pool0 = pool.perfTotals();
        }
        double secs = bestTimeSeconds(opts.reps, fn);
        if (perf_on) {
            obs::PerfSample d = obs::perfReadThread().delta(own0);
            d.accumulate(pool.perfTotals().delta(pool0));
            double bytes = d.llcMissBytes();
            if (bytes >= 0)
                timing.measured_bytes = bytes / (opts.reps + 1);
        }
        return secs;
    };

    switch (phase) {
      case Phase::Forward: {
        Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        Epilogue epilogue;
        std::vector<std::uint8_t> fp_mask;
        if (fused_relu && serving) {
            // Forward-only deployment clamps without recording the BP
            // activity mask; measure exactly that.
            epilogue = Epilogue{Epilogue::Kind::Relu};
        } else if (fused_relu) {
            fp_mask.resize(static_cast<std::size_t>(out.size()));
            epilogue =
                Epilogue{Epilogue::Kind::ReluMask, fp_mask.data()};
        }
        if (wsparse_once) {
            WeightPlanCache &wcache = WeightPlanCache::global();
            wcache.invalidate(weights.data());
            WeightPlanCache::Stats wbefore = wcache.stats();
            engine.forward(spec, in, weights, out, pool, epilogue);
            WeightPlanCache::Stats wafter = wcache.stats();
            timing.encode_seconds =
                wafter.encode_seconds - wbefore.encode_seconds;
        }
        timing.seconds = timedWithPerf([&] {
            engine.forward(spec, in, weights, out, pool, epilogue);
        });
        break;
      }
      case Phase::BackwardData: {
        Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
        timing.seconds = timedWithPerf([&] {
            if (encode_once)
                plans.invalidate(eo.data());
            engine.backwardData(spec, eo, weights, ei, pool, bp_mask);
        });
        break;
      }
      case Phase::BackwardWeights: {
        Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        timing.seconds = timedWithPerf([&] {
            if (encode_once && cold_plan)
                plans.invalidate(eo.data());
            engine.backwardWeights(spec, eo, in, dw, pool, bp_mask);
        });
        break;
      }
    }

    if (encode_once) {
        SparsePlanCache::Stats after = plans.stats();
        std::int64_t encodes = after.encodes - before.encodes;
        if (encodes > 0)
            timing.encode_seconds =
                (after.encode_seconds - before.encode_seconds) / encodes;
    }

    // Schedule telemetry across all reps of this measurement: how the
    // pool actually distributed the work, and how uneven it was.
    PoolStats sched = pool.stats().delta(sched_before);
    timing.imbalance = sched.imbalance();
    timing.chunk_map = sched.chunkMap();
    return timing;
}

void
Tuner::tunePhases(LayerPlan &plan, const std::vector<Phase> &phases,
                  const ConvSpec &spec, double sparsity, ThreadPool &pool,
                  bool fused_relu, double weight_sparsity) const
{
    spec.validate();
    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(spec.nf * 131 +
                                                  spec.nx));
    Tensor in(Shape{opts.batch, spec.nc, spec.ny, spec.nx});
    Tensor weights(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{opts.batch, spec.nf, spec.outY(), spec.outX()});
    in.fillUniform(rng);
    weights.fillUniform(rng, -0.5f, 0.5f);
    // Measure at the layer's ACTUAL weight sparsity: the CSR-weights
    // engines' cost scales with nnz, so the FP crossover must be
    // decided on weights that look like the pruned layer's.
    weights.sparsify(rng, weight_sparsity);
    double actual_ws = weights.sparsity();
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);

    plan.tuned_sparsity = sparsity;
    plan.tuned_weight_sparsity = actual_ws;
    for (Phase phase : phases) {
        plan.timings[phase].clear();
        double best = std::numeric_limits<double>::infinity();
        std::string best_name;
        for (const auto &engine : engines) {
            if (!engine->supports(phase) ||
                !engine->appliesTo(spec, weight_sparsity)) {
                continue;
            }
            EngineTiming t = measure(
                *engine, phase, spec, in, weights, eo, pool, fused_relu,
                /*serving=*/false,
                /*cold_plan=*/phase == Phase::BackwardWeights &&
                    plan.bp_data_engine != "sparse");
            t.weight_sparsity = actual_ws;
            plan.timings[phase].push_back(t);
            if (t.seconds < best) {
                best = t.seconds;
                best_name = engine->name();
            }
        }
        SPG_ASSERT(!best_name.empty());
        if (obs::traceEnabled()) {
            obs::traceInstant(
                "tuner", obs::internName("chose " + best_name + " for " +
                                         phaseName(phase)));
        }
        switch (phase) {
          case Phase::Forward:
            plan.fp_engine = best_name;
            break;
          case Phase::BackwardData:
            plan.bp_data_engine = best_name;
            break;
          case Phase::BackwardWeights:
            plan.bp_weights_engine = best_name;
            break;
        }
        verbose("tuned conv %s %s -> %s (%.3f ms)", spec.str().c_str(),
                phaseName(phase), best_name.c_str(), best * 1e3);
    }
}

LayerPlan
Tuner::tune(const ConvSpec &spec, double sparsity, ThreadPool &pool,
            bool fused_relu, double weight_sparsity) const
{
    LayerPlan plan;
    tunePhases(plan,
               {Phase::Forward, Phase::BackwardData,
                Phase::BackwardWeights},
               spec, sparsity, pool, fused_relu, weight_sparsity);
    return plan;
}

LayerPlan
Tuner::retuneBp(const LayerPlan &previous, const ConvSpec &spec,
                double sparsity, ThreadPool &pool, bool fused_relu) const
{
    if (previous.fp_engine.empty())
        return tune(spec, sparsity, pool, fused_relu,
                    previous.tuned_weight_sparsity);
    LayerPlan plan;
    // FP carried forward: choice and measurements stay valid because
    // forward cost does not depend on the error-gradient sparsity.
    // The weight sparsity the FP choice was tuned at is carried too —
    // only a pruning step moves it, and that triggers a full tune
    // instead.
    plan.fp_engine = previous.fp_engine;
    auto it = previous.timings.find(Phase::Forward);
    if (it != previous.timings.end())
        plan.timings[Phase::Forward] = it->second;
    tunePhases(plan, {Phase::BackwardData, Phase::BackwardWeights}, spec,
               sparsity, pool, fused_relu,
               previous.tuned_weight_sparsity);
    plan.tuned_weight_sparsity = previous.tuned_weight_sparsity;
    return plan;
}

std::size_t
ServingLayerPlan::bucketForBatch(std::int64_t batch) const
{
    SPG_ASSERT(!buckets.empty());
    for (std::size_t i = 0; i < buckets.size(); ++i)
        if (buckets[i] >= batch)
            return i;
    return buckets.size() - 1;
}

const std::string &
ServingLayerPlan::engineForBatch(std::int64_t batch) const
{
    return fp_engines[bucketForBatch(batch)];
}

std::vector<std::int64_t>
Tuner::servingBuckets(std::int64_t max_batch)
{
    SPG_ASSERT(max_batch >= 1);
    std::vector<std::int64_t> buckets;
    for (std::int64_t b = 1; b < max_batch; b *= 2)
        buckets.push_back(b);
    buckets.push_back(max_batch);
    return buckets;
}

ServingLayerPlan
Tuner::tuneServing(const ConvSpec &spec, std::int64_t max_batch,
                   ThreadPool &pool, bool fused_relu,
                   double weight_sparsity) const
{
    spec.validate();
    ServingLayerPlan plan;
    plan.buckets = servingBuckets(max_batch);

    Rng rng(0x5E59E ^ static_cast<std::uint64_t>(spec.nf * 131 +
                                                 spec.nx));
    Tensor weights(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    weights.fillUniform(rng, -0.5f, 0.5f);
    // Measure at the layer's actual weight sparsity — the CSR-weights
    // engines win or lose the small-batch buckets exactly there.
    weights.sparsify(rng, weight_sparsity);
    plan.tuned_weight_sparsity = weights.sparsity();
    // The BP mask path never runs at serving time; eo is a dummy the
    // Forward measurement ignores.
    Tensor eo(Shape{1, spec.nf, spec.outY(), spec.outX()});
    eo.zero();

    for (std::int64_t bucket : plan.buckets) {
        Tensor in(Shape{bucket, spec.nc, spec.ny, spec.nx});
        in.fillUniform(rng);
        std::vector<EngineTiming> timings;
        double best = std::numeric_limits<double>::infinity();
        std::string best_name;
        for (const auto &engine : engines) {
            if (!engine->supports(Phase::Forward) ||
                !engine->appliesTo(spec, weight_sparsity)) {
                continue;
            }
            EngineTiming t =
                measure(*engine, Phase::Forward, spec, in, weights, eo,
                        pool, fused_relu, /*serving=*/true);
            t.weight_sparsity = plan.tuned_weight_sparsity;
            timings.push_back(t);
            if (t.seconds < best) {
                best = t.seconds;
                best_name = engine->name();
            }
        }
        SPG_ASSERT(!best_name.empty());
        verbose("serving-tuned conv %s batch %lld -> %s (%.3f ms)",
                spec.str().c_str(), static_cast<long long>(bucket),
                best_name.c_str(), best * 1e3);
        plan.fp_engines.push_back(best_name);
        plan.timings.push_back(std::move(timings));
    }
    return plan;
}

bool
Tuner::shouldRetune(const LayerPlan &plan, double observed_sparsity,
                    int epoch) const
{
    if (opts.retune_interval > 0 && epoch > 0 &&
        epoch % opts.retune_interval == 0) {
        return true;
    }
    return std::abs(observed_sparsity - plan.tuned_sparsity) >
           opts.sparsity_drift;
}

} // namespace spg
