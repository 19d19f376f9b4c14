/**
 * @file
 * train_mnist / train_cifar10: closed-loop SGD through Trainer::run
 * (untraced) and through the same public step calls with spans around
 * each of them (traced).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "obs/metrics.hh"
#include "sparse/sparse_plan.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"
#include "util/timer.hh"
#include "workloads.hh"

namespace e2e {

using namespace spg;

namespace {

struct TrainSpec
{
    const char *name;
    std::string (*config)();
    float learning_rate;
    std::int64_t train_images;
    std::int64_t heldout_images;
    int epochs;  ///< per training cycle
    /** Output checks: held-out accuracy floor, and the band around
     *  the reference mean loss (measured on the seed code across
     *  seeds) a run's mean loss must stay inside. */
    double accuracy_floor;
    double loss_reference;
    double loss_tolerance;  ///< relative
};

// Loss references: mean over seeds 1-10 on the seed code (mnist
// 0.29-0.65, cifar10 1.19-1.53). A network that stops learning sits
// near ln(10) = 2.30, outside both bands.
const TrainSpec kTrainSpecs[] = {
    {"train_mnist", mnistNetConfigText, 0.05f, 512, 256, 6, 0.9, 0.47,
     0.6},
    {"train_cifar10", cifar10NetConfigText, 0.01f, 512, 256, 4, 0.9, 1.31,
     0.4},
};

constexpr std::int64_t kBatch = 16;
constexpr int kMinCycles = 3;
/** The traced run trains until --seconds is up, but never longer than
 *  this, so a fast host does not overfit its way into a collapse. */
constexpr int kMaxTracedEpochs = 60;
/** Error sparsity at or above this is the dead-ReLU collapse. */
constexpr double kCollapsedSparsity = 0.999;

const TrainSpec &
specFor(const std::string &name)
{
    for (const TrainSpec &s : kTrainSpecs)
        if (name == s.name)
            return s;
    throw std::runtime_error("unknown train workload " + name);
}

Dataset
slice(const Dataset &all, std::int64_t begin, std::int64_t count)
{
    Dataset d;
    d.name = all.name;
    d.channels = all.channels;
    d.height = all.height;
    d.width = all.width;
    d.classes = all.classes;
    std::int64_t elems = all.channels * all.height * all.width;
    d.images = Tensor(Shape{count, all.channels, all.height, all.width});
    std::memcpy(d.images.data(), all.images.data() + begin * elems,
                static_cast<std::size_t>(count * elems) * sizeof(float));
    d.labels.assign(all.labels.begin() + begin,
                    all.labels.begin() + begin + count);
    return d;
}

/** Train and held-out sets drawn from one synthetic distribution (the
 *  same class templates), split by position. */
struct Data
{
    Dataset train;
    Dataset heldout;
};

Data
makeData(const NetConfig &cfg, const TrainSpec &w, std::uint64_t seed)
{
    SyntheticSpec spec;
    spec.name = cfg.name + "-synthetic";
    spec.channels = cfg.channels;
    spec.height = cfg.height;
    spec.width = cfg.width;
    spec.classes = cfg.classes > 0 ? static_cast<int>(cfg.classes) : 10;
    spec.count = w.train_images + w.heldout_images;
    spec.seed = deriveSeed(seed, 1);
    Dataset all = makeSynthetic(spec);
    return Data{slice(all, 0, w.train_images),
                slice(all, w.train_images, w.heldout_images)};
}

TrainerOptions
trainerOptions(const TrainSpec &w, std::uint64_t seed)
{
    TrainerOptions o;
    o.epochs = w.epochs;
    o.batch = kBatch;
    o.learning_rate = w.learning_rate;
    o.shuffle_seed = deriveSeed(seed, 3);
    o.mode = TrainerOptions::Mode::Autotune;
    o.tuner.reps = kTunerReps;
    o.log_epochs = false;
    return o;
}

std::int64_t
tunerMeasurements()
{
    return obs::Metrics::global().counter("tuner.measurements").value();
}

/** "a" or "a>b" for the distinct values of a sequence, in order. */
std::string
sequence(const std::vector<std::string> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0 && v[i] == v[i - 1])
            continue;
        if (!out.empty())
            out += ">";
        out += v[i];
    }
    return out;
}

/** Shared output checks of one trained network. */
void
checkTrained(const TrainSpec &w, Report &rep, double mean_loss,
             double accuracy, const std::vector<double> &sparsity,
             const std::string &what)
{
    rep.tally.add(1, 0);
    std::string why;
    if (accuracy < w.accuracy_floor)
        why = "held-out accuracy " + std::to_string(accuracy) +
              " below floor " + std::to_string(w.accuracy_floor);
    double lo = w.loss_reference * (1 - w.loss_tolerance);
    double hi = w.loss_reference * (1 + w.loss_tolerance);
    if (!(mean_loss >= lo && mean_loss <= hi))
        why = "mean loss " + std::to_string(mean_loss) + " outside [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]";
    for (std::size_t i = 0; i < sparsity.size(); ++i)
        if (sparsity[i] >= kCollapsedSparsity)
            why = "conv" + std::to_string(i) + " error sparsity " +
                  std::to_string(sparsity[i]) + " (dead-ReLU collapse)";
    if (!why.empty()) {
        rep.tally.failed += 1;
        rep.fail(what + ": " + why);
    }
}

void
trainUntraced(const TrainSpec &w, const RunArgs &a, Report &rep)
{
    ThreadPool pool(a.threads);
    TrainerOptions opts = trainerOptions(w, a.seed);
    Tuner rule(opts.tuner);  // replays the trainer's re-tune decisions
    std::vector<double> setup_s, images_per_s, step_ms;
    double loss_sum = 0;
    int loss_n = 0;

    Stopwatch clock;
    for (int cycle = 0; cycle < kMinCycles || clock.seconds() < a.seconds;
         ++cycle) {
        Stopwatch build;
        NetConfig cfg = parseNetConfig(w.config());
        Data data = makeData(cfg, w, a.seed);
        Network net(cfg, deriveSeed(a.seed, 2));
        double construct_s = build.seconds();

        std::int64_t measured_before = tunerMeasurements();
        Stopwatch wall;
        Trainer trainer(net, data.train, opts);
        std::vector<EpochStats> hist = trainer.run(pool);
        double run_s = wall.seconds();

        double epoch_sum = 0, late_s = 0;
        std::int64_t steps = data.train.count() / kBatch;
        std::int64_t bad_epochs = 0;
        double cycle_loss = 0;
        for (const EpochStats &e : hist) {
            epoch_sum += e.seconds;
            cycle_loss += e.mean_loss;
            if (!std::isfinite(e.mean_loss))
                ++bad_epochs;
            if (e.epoch >= 1) {
                late_s += e.seconds;
                step_ms.push_back(e.seconds / static_cast<double>(steps) *
                                  1e3);
            }
        }
        rep.tally.add(static_cast<std::int64_t>(hist.size()), bad_epochs);
        if (bad_epochs > 0)
            rep.fail("non-finite epoch loss");
        cycle_loss /= static_cast<double>(hist.size());
        loss_sum += cycle_loss;
        ++loss_n;
        double setup = construct_s + (run_s - epoch_sum);
        double ips = static_cast<double>(steps * kBatch) *
                     static_cast<double>(hist.size() - 1) / late_s;
        setup_s.push_back(setup);
        images_per_s.push_back(ips);

        // The trainer's §4.4 re-tune rule, replayed over the observed
        // sparsities, counts the BP re-tunes the run paid for.
        auto convs = net.convLayers();
        std::vector<LayerPlan> plans(convs.size());
        int retunes = 0;
        for (const EpochStats &e : hist)
            for (std::size_t i = 0; i < convs.size(); ++i)
                if (rule.shouldRetune(plans[i], e.conv_error_sparsity[i],
                                      e.epoch + 1)) {
                    plans[i].tuned_sparsity = e.conv_error_sparsity[i];
                    ++retunes;
                }

        double acc = net.evalAccuracy(data.heldout.images,
                                      data.heldout.labels, pool);
        const std::vector<double> &sp = hist.back().conv_error_sparsity;
        checkTrained(w, rep, cycle_loss, acc, sp,
                     "cycle " + std::to_string(cycle));

        std::string sparsity;
        for (double s : sp) {
            if (!sparsity.empty())
                sparsity += ",";
            sparsity += std::to_string(s);
        }
        rep.line("cycle %d: setup %.3f s (construct %.3f, tune+retune "
                 "%.3f) | %.1f img/s | mean loss %.4f | held-out acc "
                 "%.3f | error sparsity %s | retunes %d | candidates %lld",
                 cycle, setup, construct_s, run_s - epoch_sum, ips,
                 cycle_loss, acc, sparsity.c_str(), retunes,
                 static_cast<long long>(tunerMeasurements() -
                                        measured_before));
        // Engines that ran in the timed epochs (>= 1): epoch e ran
        // what epoch e-1 left deployed.
        for (std::size_t i = 0; i < convs.size(); ++i) {
            std::vector<std::string> fp, bpd, bpw;
            for (std::size_t e = 0; e + 1 < hist.size(); ++e) {
                fp.push_back(hist[e].conv_engines[i].fp);
                bpd.push_back(hist[e].conv_engines[i].bp_data);
                bpw.push_back(hist[e].conv_engines[i].bp_weights);
            }
            rep.line("  picks conv%zu: fp=%s bpd=%s bpw=%s", i,
                     sequence(fp).c_str(), sequence(bpd).c_str(),
                     sequence(bpw).c_str());
        }
    }

    Summary steps = summarize(step_ms);
    rep.extra("train.images_per_s", median(images_per_s), "img/s",
              "median of " + std::to_string(images_per_s.size()) +
                  " cycles, epochs after the first");
    rep.extra("train.mean_loss", loss_sum / loss_n, "nats",
              "mean EpochStats::mean_loss");
    rep.extra("train.step_ms.p50", steps.p50, "ms",
              "n=" + std::to_string(steps.n) + " epochs");
    rep.extra("train.step_ms." + quantileLabel(steps.tail_q), steps.tail,
              "ms", "highest percentile with >=10 beyond, n=" +
                        std::to_string(steps.n));
    rep.extra("peak_rss_mb", peakRssMb(), "MiB", "not gated, see report.cc");
    rep.set("setup_s", median(setup_s));
    rep.set("throughput_per_s", median(images_per_s));
    rep.set("latency_p50_ms", steps.p50);
    rep.set("latency_tail_ms", steps.tail);
}

/** Per-step accumulators of the traced run. */
struct TraceTotals
{
    std::int64_t steps = 0;
    std::vector<double> busy_ns;  ///< per pool worker
    double window_ns = 0;
    double steals = 0;
    std::int64_t plan_hits = 0, plan_encodes = 0;
    double encode_s = 0;
    std::vector<ConvLayer::PhaseProfile> conv;  ///< summed deltas
    std::vector<double> conv_bp_hook_ms;
    std::vector<double> sparsity_sum;
    double fp_in_step_ms = 0;
};

void
trainTraced(const TrainSpec &w, const RunArgs &a, Report &rep)
{
    ThreadPool pool(a.threads);
    SpanLog spans;
    NetConfig cfg = parseNetConfig(w.config());
    Data data = makeData(cfg, w, a.seed);
    Network net(cfg, deriveSeed(a.seed, 2));
    // Replica the per-layer FP is timed on, synced to the trained
    // weights and engines before every traced step: timing the live
    // network's layers would warm its packed-weight caches and change
    // the step it is meant to explain.
    Network shadow(cfg, deriveSeed(a.seed, 2));
    std::vector<std::string> names = layerNames(net);
    const std::size_t L = net.layerCount();
    auto convs = net.convLayers();
    auto shadow_convs = shadow.convLayers();
    TrainerOptions opts = trainerOptions(w, a.seed);

    // blas: the conv's unfolded FP GEMM, one image, one thread.
    for (std::size_t i = 0; i < convs.size(); ++i) {
        std::string c = "conv" + std::to_string(i);
        rep.set("blas." + c + ".sgemm_gflops",
                sgemmGflops(convs[i]->spec(), spans, "blas." + c + ".sgemm"));
    }

    Tuner tuner(opts.tuner);
    std::int64_t measured_before = tunerMeasurements();
    std::vector<LayerPlan> plans;
    {
        int sp = spans.begin("core.tune");
        for (ConvLayer *conv : convs) {
            plans.push_back(tuner.tune(conv->spec(), 0.0, pool,
                                       conv->fusedRelu(),
                                       conv->weightSparsity()));
            const LayerPlan &p = plans.back();
            conv->setEngines(EngineAssignment{p.fp_engine, p.bp_data_engine,
                                              p.bp_weights_engine});
        }
        spans.end(sp);
    }
    int retunes = 0;

    Geometry in = net.inputGeometry();
    std::vector<Tensor> sacts;
    for (std::size_t i = 0; i < L; ++i) {
        Geometry g = net.layer(i).outputGeometry();
        sacts.emplace_back(Shape{kBatch, g.c, g.h, g.w});
    }
    Geometry head_in = net.layer(L - 1).inputGeometry();
    Tensor shadow_err(Shape{kBatch, head_in.c, head_in.h, head_in.w});
    auto *shadow_head = dynamic_cast<SoftmaxLayer *>(&shadow.layer(L - 1));

    TraceTotals tot;
    tot.busy_ns.assign(static_cast<std::size_t>(pool.threads()), 0.0);
    tot.conv.resize(convs.size());
    tot.conv_bp_hook_ms.assign(convs.size(), 0.0);
    tot.sparsity_sum.assign(convs.size(), 0.0);
    std::vector<std::int64_t> hook_ns(L, 0);
    std::vector<int> conv_index(L, -1);
    for (std::size_t i = 0, c = 0; i < L; ++i)
        if (dynamic_cast<ConvLayer *>(&net.layer(i)))
            conv_index[i] = static_cast<int>(c++);

    std::vector<double> untraced_step_ms;
    std::vector<std::int64_t> order(data.train.count());
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle_rng(opts.shuffle_seed);
    std::vector<int> labels;
    double loss_sum = 0;
    std::int64_t loss_n = 0, nonfinite = 0;

    Network::BackwardHook hook = [&](std::size_t i, Layer &, double) {
        hook_ns[i] = clockNs();
    };

    Stopwatch clock;
    int epoch = 0;
    for (; epoch < kMaxTracedEpochs &&
           (epoch < 3 || clock.seconds() < a.seconds);
         ++epoch) {
        for (std::int64_t i = data.train.count() - 1; i > 0; --i)
            std::swap(order[i], order[static_cast<std::int64_t>(
                                    shuffle_rng.below(i + 1))]);
        // Epoch 0 warms up untraced; then traced and untraced epochs
        // alternate so trace.overhead_frac compares neighbours.
        const bool traced = epoch % 2 == 1;
        for (std::int64_t start = 0;
             start + kBatch <= data.train.count(); start += kBatch) {
            if (!traced) {
                std::int64_t t0 = clockNs();
                Tensor batch(Shape{kBatch, in.c, in.h, in.w});
                data.train.fillBatch(order, start, kBatch, batch, labels);
                StepStats st =
                    net.trainStep(batch, labels, w.learning_rate, pool);
                std::int64_t t1 = clockNs();
                if (epoch > 0)
                    untraced_step_ms.push_back((t1 - t0) * 1e-6);
                loss_sum += st.loss;
                ++loss_n;
                nonfinite += !std::isfinite(st.loss);
                continue;
            }

            // Outside the step window: sync the replica, snapshot the
            // counters the layers already publish.
            for (std::size_t i = 0; i < L; ++i) {
                auto src = net.layer(i).params();
                auto dst = shadow.layer(i).params();
                for (std::size_t p = 0; p < src.size(); ++p)
                    std::memcpy(dst[p]->data(), src[p]->data(),
                                static_cast<std::size_t>(src[p]->size()) *
                                    sizeof(float));
                if (!src.empty())
                    shadow.layer(i).paramsUpdated();
            }
            for (std::size_t c = 0; c < convs.size(); ++c)
                shadow_convs[c]->setEngines(convs[c]->engines());
            std::vector<ConvLayer::PhaseProfile> prof_before;
            for (ConvLayer *conv : convs)
                prof_before.push_back(conv->profile());
            PoolStats pool_before = pool.stats();
            SparsePlanCache::Stats plan_before =
                SparsePlanCache::global().stats();

            int step_span = spans.begin("nn.step");
            std::int64_t t0 = clockNs();
            int fill_span = spans.begin("data.fill");
            Tensor batch(Shape{kBatch, in.c, in.h, in.w});
            data.train.fillBatch(order, start, kBatch, batch, labels);
            spans.end(fill_span);
            int fb_span = spans.begin("nn.forward_backward");
            std::int64_t fb0 = clockNs();
            StepStats st = net.forwardBackward(batch, labels, pool, hook);
            spans.end(fb_span);
            int up_span = spans.begin("nn.update");
            net.applyUpdate(w.learning_rate);
            spans.end(up_span);
            std::int64_t t1 = clockNs();
            spans.end(step_span);
            // BP intervals between consecutive hooks; the head's own
            // interval starts at the unobservable end of FP and is
            // timed on the replica below instead.
            for (std::size_t i = 0; i + 1 < L; ++i) {
                spans.add("nn." + names[i] + ".bwd", hook_ns[i + 1],
                          hook_ns[i]);
                if (conv_index[i] >= 0)
                    tot.conv_bp_hook_ms[conv_index[i]] +=
                        (hook_ns[i] - hook_ns[i + 1]) * 1e-6;
            }
            tot.fp_in_step_ms += (hook_ns[L - 1] - fb0) * 1e-6;

            PoolStats d = pool.stats().delta(pool_before);
            for (std::size_t wk = 0;
                 wk < d.workers.size() && wk < tot.busy_ns.size(); ++wk) {
                tot.busy_ns[wk] += static_cast<double>(d.workers[wk].busy_ns);
                tot.steals += static_cast<double>(d.workers[wk].steals);
            }
            tot.window_ns += static_cast<double>(t1 - t0);
            SparsePlanCache::Stats plan_after =
                SparsePlanCache::global().stats();
            tot.plan_hits += plan_after.hits - plan_before.hits;
            tot.plan_encodes += plan_after.encodes - plan_before.encodes;
            tot.encode_s += plan_after.encode_seconds -
                            plan_before.encode_seconds;
            for (std::size_t c = 0; c < convs.size(); ++c) {
                const ConvLayer::PhaseProfile &p = convs[c]->profile();
                tot.conv[c].fp_seconds +=
                    p.fp_seconds - prof_before[c].fp_seconds;
                tot.conv[c].bp_data_seconds +=
                    p.bp_data_seconds - prof_before[c].bp_data_seconds;
                tot.conv[c].bp_weights_seconds +=
                    p.bp_weights_seconds - prof_before[c].bp_weights_seconds;
                tot.sparsity_sum[c] += convs[c]->lastErrorSparsity();
            }
            ++tot.steps;
            loss_sum += st.loss;
            ++loss_n;
            nonfinite += !std::isfinite(st.loss);

            // Per-layer FP on the replica, same batch, weights, engines.
            shadow_head->setLabels(labels);
            const Tensor *x = &batch;
            for (std::size_t i = 0; i < L; ++i) {
                int sp = spans.begin("nn." + names[i] + ".fwd");
                shadow.layer(i).forward(*x, sacts[i], pool);
                spans.end(sp);
                x = &sacts[i];
            }
            int hb = spans.begin("nn." + names[L - 1] + ".bwd");
            shadow_head->backward(sacts[L - 2], sacts[L - 1], sacts[L - 1],
                                  shadow_err, pool);
            spans.end(hb);
        }

        // The trainer's §4.4 re-tune, as Trainer::run does it.
        for (std::size_t c = 0; c < convs.size(); ++c) {
            double observed = convs[c]->lastErrorSparsity();
            if (!tuner.shouldRetune(plans[c], observed, epoch + 1))
                continue;
            int sp = spans.begin("core.tune");
            plans[c] = tuner.retuneBp(plans[c], convs[c]->spec(), observed,
                                      pool, convs[c]->fusedRelu());
            spans.end(sp);
            convs[c]->setEngines(EngineAssignment{plans[c].fp_engine,
                                                  plans[c].bp_data_engine,
                                                  plans[c].bp_weights_engine});
            ++retunes;
        }
    }

    rep.tally.add(loss_n, nonfinite);
    if (nonfinite > 0)
        rep.fail("non-finite step loss");
    std::vector<double> sparsity;
    for (ConvLayer *conv : convs)
        sparsity.push_back(conv->lastErrorSparsity());
    double acc =
        net.evalAccuracy(data.heldout.images, data.heldout.labels, pool);
    // The schedule alternates traced epochs, so the loss is checked
    // against the floor only; the band applies to Trainer::run runs.
    if (acc < w.accuracy_floor) {
        rep.tally.failed += 1;
        rep.fail("held-out accuracy " + std::to_string(acc));
    }
    rep.tally.add(1, 0);
    for (std::size_t c = 0; c < sparsity.size(); ++c)
        if (sparsity[c] >= kCollapsedSparsity) {
            rep.tally.failed += 1;
            rep.fail("conv" + std::to_string(c) + " error sparsity collapse");
        }

    const double steps = static_cast<double>(tot.steps);
    auto per_step = [&](const std::string &span) {
        return spans.totalMs(span) / steps;
    };
    rep.line("traced %lld steps over %d epochs, %zu spans, mean loss %.4f, "
             "held-out acc %.3f",
             static_cast<long long>(tot.steps), epoch, spans.size(),
             loss_sum / static_cast<double>(loss_n), acc);

    // threading
    double busy = std::accumulate(tot.busy_ns.begin(), tot.busy_ns.end(), 0.0);
    double max_busy = 0, ran = 0;
    for (double b : tot.busy_ns) {
        max_busy = std::max(max_busy, b);
        ran += b > 0;
    }
    rep.set("threading.busy_frac",
            busy / (tot.window_ns * static_cast<double>(pool.threads())));
    rep.set("threading.imbalance", ran > 0 ? max_busy / (busy / ran) : 1.0);
    rep.set("threading.steals_per_step", tot.steals / steps);

    // conv + sparse
    for (std::size_t c = 0; c < convs.size(); ++c) {
        std::string L_ = "conv" + std::to_string(c);
        double gflop = static_cast<double>(convs[c]->spec().flops()) *
                       static_cast<double>(kBatch) * 1e-9;
        const ConvLayer::PhaseProfile &p = tot.conv[c];
        double fp = p.fp_seconds / steps, bpd = p.bp_data_seconds / steps,
               bpw = p.bp_weights_seconds / steps;
        rep.set("conv." + L_ + ".fp_ms", fp * 1e3);
        rep.set("conv." + L_ + ".bpd_ms", bpd * 1e3);
        rep.set("conv." + L_ + ".bpw_ms", bpw * 1e3);
        rep.set("conv." + L_ + ".fp_gflops", gflop / fp);
        rep.set("conv." + L_ + ".bpd_gflops", gflop / bpd);
        rep.set("conv." + L_ + ".bpw_gflops", gflop / bpw);
        rep.set("sparse." + L_ + ".error_sparsity", tot.sparsity_sum[c] / steps);
        rep.set("nn." + L_ + ".bp_gap_ms",
                tot.conv_bp_hook_ms[c] / steps - (bpd + bpw) * 1e3);
        const EngineAssignment &e = convs[c]->engines();
        rep.line("  final picks %s: fp=%s bpd=%s bpw=%s", L_.c_str(),
                 e.fp.c_str(), e.bp_data.c_str(), e.bp_weights.c_str());
    }
    std::int64_t lookups = tot.plan_hits + tot.plan_encodes;
    rep.set("sparse.plan_hit_frac",
            lookups > 0 ? static_cast<double>(tot.plan_hits) /
                              static_cast<double>(lookups)
                        : 0.0);
    rep.set("sparse.encode_ms", tot.encode_s / steps * 1e3);

    // nn: attribution of the step wall time.
    double step_ms = per_step("nn.step");
    double fill_ms = per_step("data.fill");
    double update_ms = per_step("nn.update");
    double attributed = fill_ms + update_ms;
    rep.line("  %-10s %10s %10s %7s", "layer", "fwd ms", "bwd ms", "share");
    for (std::size_t i = 0; i < L; ++i) {
        double f = per_step("nn." + names[i] + ".fwd");
        double b = per_step("nn." + names[i] + ".bwd");
        attributed += f + b;
        rep.set("nn." + names[i] + ".fwd_ms", f);
        rep.set("nn." + names[i] + ".bwd_ms", b);
        rep.line("  %-10s %10.4f %10.4f %6.1f%%", names[i].c_str(), f, b,
                 100.0 * (f + b) / step_ms);
    }
    rep.line("  %-10s %10.4f %10s %6.1f%%", "data.fill", fill_ms, "",
             100.0 * fill_ms / step_ms);
    rep.line("  %-10s %10.4f %10s %6.1f%%", "update", update_ms, "",
             100.0 * update_ms / step_ms);
    rep.line("  %-10s %10.4f %10s %6.1f%%", "unattrib.", step_ms - attributed,
             "", 100.0 * (step_ms - attributed) / step_ms);
    rep.extra("nn.fp_in_step_ms", tot.fp_in_step_ms / steps, "ms",
              "forwardBackward start to the head's BP hook (FP + head BP)");
    rep.set("nn.update_ms", update_ms);
    rep.set("nn.step_ms", step_ms);
    rep.set("nn.unattributed_ms", step_ms - attributed);
    rep.set("data.fill_ms", fill_ms);

    // core
    rep.set("core.tune_s", spans.totalMs("core.tune") * 1e-3);
    rep.set("core.retunes", retunes);
    rep.set("core.candidates",
            static_cast<double>(tunerMeasurements() - measured_before));

    // obs
    double untraced = 0;
    for (double v : untraced_step_ms)
        untraced += v;
    untraced /= static_cast<double>(untraced_step_ms.size());
    rep.set("trace.overhead_frac", step_ms / untraced - 1.0);
    spans.print(rep);
}

} // namespace

bool
isTrainWorkload(const std::string &name)
{
    for (const TrainSpec &s : kTrainSpecs)
        if (name == s.name)
            return true;
    return false;
}

void
runTrain(const RunArgs &args, Report &report)
{
    const TrainSpec &w = specFor(args.workload);
    if (args.trace)
        trainTraced(w, args, report);
    else
        trainUntraced(w, args, report);
}

} // namespace e2e
