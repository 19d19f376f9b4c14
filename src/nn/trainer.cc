#include "nn/trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "blas/gemm.hh"
#include "obs/metrics.hh"
#include "obs/perfcnt.hh"
#include "obs/trace.hh"
#include "perf/region.hh"
#include "simcpu/conv_model.hh"
#include "sparse/sparse_plan.hh"
#include "util/aligned.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace spg {

namespace {

/** A conv layer whose error sparsity reaches this has stopped learning
 *  (e2ebench fails a run at the same value). */
constexpr double kDeadErrorSparsity = 0.999;

} // namespace

Trainer::Trainer(Network &network, const Dataset &dataset,
                 TrainerOptions options)
    : network(network), dataset(dataset), opts(options),
      tuner(options.tuner)
{
    if (opts.epochs < 1 || opts.batch < 1)
        fatal("trainer needs epochs >= 1 and batch >= 1");
    if (dataset.count() < opts.batch)
        fatal("dataset has %lld images, fewer than one batch of %lld",
              static_cast<long long>(dataset.count()),
              static_cast<long long>(opts.batch));
    Geometry in = network.inputGeometry();
    if (in.c != dataset.channels || in.h != dataset.height ||
        in.w != dataset.width) {
        fatal("network input %s does not match dataset %lldx%lldx%lld",
              in.str().c_str(), static_cast<long long>(dataset.channels),
              static_cast<long long>(dataset.height),
              static_cast<long long>(dataset.width));
    }
}

void
Trainer::tuneAll(ThreadPool &pool, double sparsity_hint)
{
    SPG_TRACE_SCOPE("train", "tune");
    plans.clear();
    for (ConvLayer *conv : network.convLayers()) {
        LayerPlan plan = tuner.tune(conv->spec(), sparsity_hint, pool,
                                    conv->fusedRelu(),
                                    conv->weightSparsity());
        conv->setEngines(EngineAssignment{plan.fp_engine,
                                          plan.bp_data_engine,
                                          plan.bp_weights_engine});
        plans.push_back(std::move(plan));
    }
}

std::vector<EpochStats>
Trainer::run(ThreadPool &pool)
{
    if (opts.mode == TrainerOptions::Mode::Autotune) {
        // Initial plans assume dense errors; re-tuned once sparsity
        // data exists.
        tuneAll(pool, 0.0);
    }

    std::vector<std::int64_t> order(dataset.count());
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle_rng(opts.shuffle_seed);

    std::vector<EpochStats> history;
    Stopwatch total;
    std::int64_t total_images = 0;

    pending_drift.clear();
    drift = obs::DriftReport{};
    bool warned_dead = false;

    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
        SPG_TRACE_SCOPE_N("train", "epoch", "epoch", epoch);
        if (opts.shuffle) {
            for (std::int64_t i = dataset.count() - 1; i > 0; --i) {
                std::int64_t j = static_cast<std::int64_t>(
                    shuffle_rng.below(i + 1));
                std::swap(order[i], order[j]);
            }
        }

        // Pruning step: ramp each prunable layer toward its target.
        // Pruning mutates weights, so afterwards the FP crossover is
        // re-checked at the layer's new weight sparsity — the §4.4
        // drift test applied to the weight axis (a full re-tune, not
        // retuneBp: weight sparsity shifts the FP ranking).
        double ramp = pruneRampFraction(opts.prune, epoch);
        if (opts.prune.enabled() && ramp > 0.0) {
            SPG_TRACE_SCOPE_N("train", "prune", "epoch", epoch);
            std::size_t count = 0;
            for (std::size_t i = 0; i < network.layerCount(); ++i)
                count += network.layer(i).prunable();
            std::size_t index = 0;
            for (std::size_t i = 0; i < network.layerCount(); ++i) {
                Layer &layer = network.layer(i);
                if (!layer.prunable())
                    continue;
                layer.pruneToSparsity(
                    ramp * pruneLayerTarget(opts.prune, index, count));
                ++index;
            }
            obs::Metrics::global().counter("prune.steps").add();
            obs::Metrics::global().gauge("prune.ramp_fraction")
                .set(ramp);
            if (opts.mode == TrainerOptions::Mode::Autotune) {
                auto convs = network.convLayers();
                for (std::size_t i = 0;
                     i < convs.size() && i < plans.size(); ++i) {
                    double ws = convs[i]->weightSparsity();
                    if (std::abs(ws -
                                 plans[i].tuned_weight_sparsity) <=
                        opts.tuner.sparsity_drift)
                        continue;
                    plans[i] = tuner.tune(convs[i]->spec(),
                                          plans[i].tuned_sparsity,
                                          pool, convs[i]->fusedRelu(),
                                          ws);
                    convs[i]->setEngines(
                        EngineAssignment{plans[i].fp_engine,
                                         plans[i].bp_data_engine,
                                         plans[i].bp_weights_engine});
                }
            }
        }

        EpochStats stats;
        stats.epoch = epoch;
        std::int64_t fused_before =
            obs::Metrics::global().counter("nn.fused_relu_passes").value();
        SparsePlanCache::Stats plans_before =
            SparsePlanCache::global().stats();
        std::vector<ConvLayer::PhaseProfile> prof_before;
        for (ConvLayer *conv : network.convLayers())
            prof_before.push_back(conv->profile());
        PoolStats sched_before = pool.stats();
        // Hardware telemetry brackets the training steps: package
        // energy from RAPL, counter totals from the trainer thread's
        // session plus the pool workers'. Both degrade to "n/a".
        obs::RaplReader &meter = obs::energyMeter();
        double joules_before =
            meter.available() ? meter.totalJoules() : 0.0;
        const bool perf_on = obs::perfEnabled();
        obs::PerfSample perf_before;
        if (perf_on) {
            perf_before = obs::perfReadThread();
            perf_before.accumulate(pool.perfTotals());
        }
        Stopwatch watch;
        double loss_sum = 0, acc_sum = 0;
        std::int64_t steps = 0, images = 0;
        std::vector<int> labels;

        for (std::int64_t start = 0; start + opts.batch <= dataset.count();
             start += opts.batch) {
            Tensor batch(Shape{opts.batch, dataset.channels,
                               dataset.height, dataset.width});
            dataset.fillBatch(order, start, opts.batch, batch, labels);
            StepStats step = network.trainStep(
                batch, labels, opts.learning_rate, pool);
            loss_sum += step.loss;
            acc_sum += step.accuracy;
            ++steps;
            images += opts.batch;
        }
        SPG_ASSERT(steps > 0);

        stats.seconds = watch.seconds();
        if (meter.available()) {
            stats.joules = meter.totalJoules() - joules_before;
            if (stats.joules > 0)
                stats.images_per_joule = images / stats.joules;
            drift.addEpochEnergy(epoch, stats.joules);
        }
        obs::PerfSample epoch_perf;
        if (perf_on) {
            epoch_perf = obs::perfReadThread();
            epoch_perf.accumulate(pool.perfTotals());
            epoch_perf = epoch_perf.delta(perf_before);
        }
        // Phase breakdown and schedule telemetry cover the training
        // steps only — snapshots are taken before any re-tuning below.
        stats.pool_imbalance = pool.stats().delta(sched_before).imbalance();
        {
            auto convs = network.convLayers();
            obs::PerfSample conv_perf;
            for (std::size_t i = 0; i < convs.size(); ++i) {
                const ConvLayer::PhaseProfile &p = convs[i]->profile();
                stats.fp_seconds +=
                    p.fp_seconds - prof_before[i].fp_seconds;
                stats.bp_data_seconds +=
                    p.bp_data_seconds - prof_before[i].bp_data_seconds;
                stats.bp_weights_seconds +=
                    p.bp_weights_seconds -
                    prof_before[i].bp_weights_seconds;
                conv_perf.accumulate(
                    p.fp_perf.delta(prof_before[i].fp_perf));
                conv_perf.accumulate(
                    p.bp_data_perf.delta(prof_before[i].bp_data_perf));
                conv_perf.accumulate(p.bp_weights_perf.delta(
                    prof_before[i].bp_weights_perf));
            }
            double conv_bytes = conv_perf.llcMissBytes();
            if (conv_bytes >= 0)
                stats.conv_bytes = conv_bytes;
        }
        SparsePlanCache::Stats plans_after =
            SparsePlanCache::global().stats();
        stats.sparse_encodes = plans_after.encodes - plans_before.encodes;
        stats.sparse_plan_hits = plans_after.hits - plans_before.hits;
        stats.sparse_encode_seconds =
            plans_after.encode_seconds - plans_before.encode_seconds;
        stats.mean_loss = loss_sum / steps;
        stats.accuracy = acc_sum / steps;
        stats.images_per_second = images / stats.seconds;
        stats.fused_relu_passes =
            obs::Metrics::global().counter("nn.fused_relu_passes").value() -
            fused_before;
        stats.arena_bytes = network.arenaBytes();
        stats.arena_unplanned_bytes = network.arenaUnplannedBytes();
        total_images += images;

        for (ConvLayer *conv : network.convLayers()) {
            stats.conv_error_sparsity.push_back(
                conv->lastErrorSparsity());
            stats.conv_weight_sparsity.push_back(
                conv->weightSparsity());
        }
        // Dead ReLUs pass (almost) no error back; sparse-BP and drift
        // numbers from such a run mean nothing, so say so once.
        for (std::size_t i = 0;
             i < stats.conv_error_sparsity.size() && !warned_dead; ++i) {
            if (stats.conv_error_sparsity[i] >= kDeadErrorSparsity) {
                warn("conv%zu error sparsity %.4f in epoch %d: the network "
                     "has stopped learning (dead ReLUs?); try a smaller "
                     "learning rate",
                     i, stats.conv_error_sparsity[i], epoch);
                warned_dead = true;
            }
        }
        {
            // Pruned fraction over all prunable weight tensors (bias
            // is never pruned; params()[0] is the weight tensor by
            // layer convention).
            std::int64_t zeros = 0, total = 0;
            for (std::size_t i = 0; i < network.layerCount(); ++i) {
                Layer &layer = network.layer(i);
                if (!layer.prunable())
                    continue;
                const Tensor *w = layer.params()[0];
                zeros += w->zeroCount();
                total += w->size();
            }
            stats.weight_sparsity =
                total > 0 ? static_cast<double>(zeros) /
                                static_cast<double>(total)
                          : 0.0;
        }
        stats.accuracy_delta =
            history.empty() ? 0.0
                            : stats.accuracy - history.back().accuracy;

        // Drift samples must capture the engines that RAN this epoch,
        // so collect before any re-tune below swaps them out.
        collectDriftSamples(pool, static_cast<int>(steps), prof_before,
                            stats.conv_error_sparsity);

        {
            obs::Metrics &metrics = obs::Metrics::global();
            metrics.counter("trainer.steps").add(steps);
            metrics.counter("trainer.images").add(images);
            PoolStats sched = pool.stats().delta(sched_before);
            std::int64_t steals = 0, chunks = 0;
            for (const PoolStats::Worker &w : sched.workers) {
                steals += static_cast<std::int64_t>(w.steals);
                chunks += static_cast<std::int64_t>(w.chunks);
            }
            metrics.counter("pool.steals").add(steals);
            metrics.counter("pool.chunks").add(chunks);
            metrics.gauge("pool.imbalance").set(stats.pool_imbalance);
            if (opts.prune.enabled()) {
                metrics.gauge("prune.weight_sparsity")
                    .set(stats.weight_sparsity);
                metrics.gauge("prune.accuracy_delta")
                    .set(stats.accuracy_delta);
            }
            metrics.histogram("trainer.epoch_seconds")
                .observe(stats.seconds);
            // Hardware telemetry flush: counter totals land in the
            // metrics sidecar and as Chrome trace counter lanes, so
            // the per-epoch traffic/IPC/energy trajectory is visible
            // in both documents.
            for (int ev = 0; ev < obs::kPerfEventCount; ++ev) {
                if (!epoch_perf.has(ev))
                    continue;
                metrics.counter(std::string("perf.") +
                                obs::perfEventName(ev))
                    .add(static_cast<std::int64_t>(
                        epoch_perf.values[ev]));
            }
            if (epoch_perf.llcMissBytes() >= 0 &&
                obs::traceEnabled()) {
                obs::traceCounter("perf.llc_miss_mb",
                                  static_cast<std::int64_t>(
                                      epoch_perf.llcMissBytes() / 1e6));
            }
            if (epoch_perf.has(obs::kPerfCycles) &&
                epoch_perf.has(obs::kPerfInstructions) &&
                epoch_perf.values[obs::kPerfCycles] > 0 &&
                obs::traceEnabled()) {
                obs::traceCounter(
                    "perf.ipc_x100",
                    static_cast<std::int64_t>(
                        100.0 *
                        epoch_perf.values[obs::kPerfInstructions] /
                        epoch_perf.values[obs::kPerfCycles]));
            }
            if (stats.joules >= 0) {
                metrics.histogram("trainer.epoch_joules")
                    .observe(stats.joules);
                if (obs::traceEnabled() && stats.seconds > 0)
                    obs::traceCounter("energy.watts",
                                      static_cast<std::int64_t>(
                                          stats.joules /
                                          stats.seconds));
            }
            // Allocation accounting: how much zero-fill traffic the
            // uninitialized (arena / staging) path avoided so far.
            const AllocCounters &alloc = allocCounters();
            metrics.gauge("alloc.zeroed_bytes")
                .set(static_cast<double>(alloc.zeroed_bytes.load(
                    std::memory_order_relaxed)));
            metrics.gauge("alloc.uninit_bytes")
                .set(static_cast<double>(alloc.uninit_bytes.load(
                    std::memory_order_relaxed)));
        }

        // §4.4: re-check BP engine choices as sparsity drifts.
        if (opts.mode == TrainerOptions::Mode::Autotune) {
            auto convs = network.convLayers();
            for (std::size_t i = 0; i < convs.size(); ++i) {
                double observed = stats.conv_error_sparsity[i];
                if (tuner.shouldRetune(plans[i], observed, epoch + 1)) {
                    // FP profitability cannot drift with sparsity, so
                    // only the BP phases are re-measured; the plan
                    // keeps the FP choice and timings.
                    plans[i] = tuner.retuneBp(plans[i], convs[i]->spec(),
                                              observed, pool,
                                              convs[i]->fusedRelu());
                    convs[i]->setEngines(
                        EngineAssignment{plans[i].fp_engine,
                                         plans[i].bp_data_engine,
                                         plans[i].bp_weights_engine});
                }
            }
        }
        for (ConvLayer *conv : network.convLayers())
            stats.conv_engines.push_back(conv->engines());

        if (opts.log_epochs) {
            // Encode/reuse accounting and schedule imbalance are part
            // of the normal epoch line — they explain throughput dips
            // that loss/accuracy alone cannot.
            inform("epoch %2d  loss %.4f  acc %.3f  %.1f img/s  "
                   "encodes %lld  reuses %lld  imbalance %.2f  "
                   "fused %lld  arena %.1f/%.1f MiB",
                   epoch, stats.mean_loss, stats.accuracy,
                   stats.images_per_second,
                   static_cast<long long>(stats.sparse_encodes),
                   static_cast<long long>(stats.sparse_plan_hits),
                   stats.pool_imbalance,
                   static_cast<long long>(stats.fused_relu_passes),
                   stats.arena_bytes / (1024.0 * 1024.0),
                   stats.arena_unplanned_bytes / (1024.0 * 1024.0));
            if (stats.joules >= 0)
                inform("  energy %.1f J  %.1f W  %.2f img/J",
                       stats.joules, stats.joules / stats.seconds,
                       stats.images_per_joule);
            verbose("  phases: fp %.1f ms  bp-data %.1f ms  "
                    "bp-weights %.1f ms  encode %.1f ms",
                    stats.fp_seconds * 1e3, stats.bp_data_seconds * 1e3,
                    stats.bp_weights_seconds * 1e3,
                    stats.sparse_encode_seconds * 1e3);
            if (opts.prune.enabled())
                inform("  pruned %.1f%% of weights  acc delta %+.3f",
                       stats.weight_sparsity * 100.0,
                       stats.accuracy_delta);
        }
        history.push_back(std::move(stats));
    }

    overall_ips = total_images / total.seconds();
    joinDrift(pool);

    if (opts.log_epochs && logLevel() >= LogLevel::Normal &&
        history.size() > 1) {
        TablePrinter table(
            "Training epochs",
            {"epoch", "loss", "acc", "d-acc", "w-sp", "img/s", "fp ms",
             "bp-data ms", "bp-w ms", "encode ms", "encodes", "reuses",
             "imbalance", "fused", "arena MiB", "J", "img/J"});
        for (const EpochStats &s : history) {
            table.addRow({TablePrinter::fmt(
                              static_cast<long long>(s.epoch)),
                          TablePrinter::fmt(s.mean_loss, 4),
                          TablePrinter::fmt(s.accuracy, 3),
                          TablePrinter::fmt(s.accuracy_delta, 3),
                          TablePrinter::fmt(s.weight_sparsity, 2),
                          TablePrinter::fmt(s.images_per_second, 1),
                          TablePrinter::fmt(s.fp_seconds * 1e3, 1),
                          TablePrinter::fmt(s.bp_data_seconds * 1e3, 1),
                          TablePrinter::fmt(s.bp_weights_seconds * 1e3,
                                            1),
                          TablePrinter::fmt(
                              s.sparse_encode_seconds * 1e3, 1),
                          TablePrinter::fmt(static_cast<long long>(
                              s.sparse_encodes)),
                          TablePrinter::fmt(static_cast<long long>(
                              s.sparse_plan_hits)),
                          TablePrinter::fmt(s.pool_imbalance, 2),
                          TablePrinter::fmt(static_cast<long long>(
                              s.fused_relu_passes)),
                          TablePrinter::fmt(
                              s.arena_bytes / (1024.0 * 1024.0), 1),
                          s.joules >= 0
                              ? TablePrinter::fmt(s.joules, 1)
                              : "n/a",
                          s.images_per_joule >= 0
                              ? TablePrinter::fmt(s.images_per_joule, 2)
                              : "n/a"});
        }
        table.print();
    }
    return history;
}

void
Trainer::collectDriftSamples(
    ThreadPool &pool, int steps,
    const std::vector<ConvLayer::PhaseProfile> &prof_before,
    const std::vector<double> &sparsity)
{
    (void)pool;
    auto convs = network.convLayers();
    for (std::size_t i = 0; i < convs.size(); ++i) {
        const ConvLayer::PhaseProfile &p = convs[i]->profile();
        const EngineAssignment &engines = convs[i]->engines();
        struct PhaseSlice
        {
            Phase phase;
            double measured;
            const std::string *engine;
            double bytes;  ///< counter-derived traffic; -1 when n/a
        };
        const PhaseSlice slices[] = {
            {Phase::Forward,
             p.fp_seconds - prof_before[i].fp_seconds, &engines.fp,
             p.fp_perf.delta(prof_before[i].fp_perf).llcMissBytes()},
            {Phase::BackwardData,
             p.bp_data_seconds - prof_before[i].bp_data_seconds,
             &engines.bp_data,
             p.bp_data_perf.delta(prof_before[i].bp_data_perf)
                 .llcMissBytes()},
            {Phase::BackwardWeights,
             p.bp_weights_seconds - prof_before[i].bp_weights_seconds,
             &engines.bp_weights,
             p.bp_weights_perf.delta(prof_before[i].bp_weights_perf)
                 .llcMissBytes()},
        };
        for (const PhaseSlice &slice : slices) {
            if (slice.measured <= 0 || steps <= 0)
                continue;
            PendingDrift sample;
            sample.label = "conv" + std::to_string(i);
            sample.spec = convs[i]->spec();
            sample.phase = slice.phase;
            sample.engine = *slice.engine;
            sample.sparsity = sparsity[i];
            sample.weight_sparsity = convs[i]->weightSparsity();
            sample.measured_seconds = slice.measured / steps;
            if (slice.bytes >= 0)
                sample.measured_bytes = slice.bytes / steps;
            sample.fused_relu = convs[i]->fusedRelu();
            if (i < plans.size()) {
                auto it = plans[i].timings.find(slice.phase);
                if (it != plans[i].timings.end()) {
                    for (const EngineTiming &t : it->second) {
                        if (t.engine == sample.engine) {
                            sample.chunk_map = t.chunk_map;
                            sample.layout = t.layout;
                            break;
                        }
                    }
                }
            }
            pending_drift.push_back(std::move(sample));
        }
    }
}

void
Trainer::joinDrift(ThreadPool &pool)
{
    if (pending_drift.empty())
        return;

    // Calibrate the machine model from a measured single-core SGEMM
    // rate, exactly like the model-validation tests do.
    constexpr std::int64_t kDim = 256;
    std::vector<float> a(kDim * kDim, 1.0f), b(kDim * kDim, 0.5f),
        c(kDim * kDim, 0.0f);
    double gemm_seconds = bestTimeSeconds(3, [&] {
        sgemm(Trans::No, Trans::No, kDim, kDim, kDim, 1.0f, a.data(),
              kDim, b.data(), kDim, 0.0f, c.data(), kDim);
    });
    double gflops = 2.0 * kDim * kDim * kDim / gemm_seconds / 1e9;
    // When counters are live, the bandwidth axis comes from an
    // LLC-miss-metered streaming sweep instead of the default guess;
    // hostCalibrated falls back on a non-positive result.
    MachineModel machine = MachineModel::hostCalibrated(
        gflops, obs::measuredStreamBandwidthGbs());
    int cores = pool.threads();

    for (const PendingDrift &sample : pending_drift) {
        // Engines without a model have nothing to drift from.
        if (!hasConvModel(sample.engine))
            continue;
        SimResult modeled_result = modelConvPhase(
            machine, sample.spec, sample.phase, sample.engine, opts.batch,
            cores, sample.sparsity,
            sample.chunk_map.empty() ? nullptr : &sample.chunk_map,
            sample.fused_relu, sample.weight_sparsity);
        obs::DriftSample out;
        out.label = sample.label;
        out.phase = phaseName(sample.phase);
        out.engine = sample.engine;
        out.layout = sample.layout;
        char region_buf[8];
        std::snprintf(
            region_buf, sizeof(region_buf), "R%d",
            static_cast<int>(
                classifyRegion(sample.spec, sample.sparsity)));
        out.region = region_buf;
        out.measured_seconds = sample.measured_seconds;
        out.modeled_seconds = modeled_result.seconds;
        out.measured_bytes = sample.measured_bytes;
        out.modeled_bytes = modeled_result.total_bytes;
        drift.add(std::move(out));
    }
    pending_drift.clear();
}

} // namespace spg
