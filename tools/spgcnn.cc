/**
 * @file
 * spgcnn — the command-line front end of the framework.
 *
 * Subcommands:
 *
 *   spgcnn train --net mnist|cifar10|imagenet100|<path>
 *                [--dataset-size N] [--epochs N] [--batch N] [--lr F]
 *                [--mode auto|fixed] [--fp E] [--bp E] [--threads N]
 *                [--prune <target>[@<start>[:<ramp>]]]
 *                [--save ckpt.bin] [--load ckpt.bin]
 *       Train a network on a synthetic dataset matching its input
 *       geometry, with the spg-CNN scheduler (auto) or a fixed engine
 *       assignment. --prune ramps magnitude weight pruning to the
 *       target zero fraction (e.g. "0.9@1:4").
 *
 *   spgcnn characterize --n N --nf N --nc N --k N [--stride N]
 *                [--sparsity F]
 *       Print the paper's §3 characterization of one convolution:
 *       AIT model, Fig. 1 region, engine recommendation, and the
 *       modeled paper-machine behaviour.
 *
 *   spgcnn tune --n N --nf N --nc N --k N [--stride N] [--sparsity F]
 *                [--weight-sparsity F] [--batch N] [--threads N]
 *       Measure every applicable engine on this machine and print the
 *       scheduler's choice per phase. --weight-sparsity measures the
 *       FP engines on a weight tensor pruned to that zero fraction
 *       (the Fig. 4-style crossover axis of the CSR-weights engines).
 *
 *   spgcnn serve --net mnist|cifar10|imagenet100|<path>
 *                [--instances N] [--max-batch N] [--budget-ms F]
 *                [--queue-cap N] [--threads N] [--rate F]
 *                [--duration F] [--slo-ms F] [--load ckpt.bin]
 *                [--no-tune]
 *       Serve the network forward-only under open-loop Poisson load:
 *       dynamic batching, per-bucket serving engine plans, latency
 *       percentiles, QPS and goodput against the SLO.
 *
 *   spgcnn counters [--batch N] [--reps N] [--threads N]
 *       Measure one Table-1 layer per engine family with hardware
 *       counters and print measured vs modeled DRAM traffic and AIT.
 *       Measured columns are "n/a" without perf_event access.
 *
 *   spgcnn cluster --net mnist|cifar10|imagenet100|<path>
 *                [--workers K] [--global-batch N] [--epochs N]
 *                [--grad-compress dense|threshold:T|topk:F]
 *                [--allreduce ring|tree] [--no-overlap]
 *                [--link-gbs F] [--latency-us F] [--tune]
 *                [--sweep 1,2,4,..] [--json-file out.json]
 *       Sharded data-parallel training with bucketed gradient
 *       exchange: K replicas run sequentially on this host, exchange
 *       CT-CSR-compressed gradients through the allreduce schedule
 *       simulator, and the measured per-bucket profile is
 *       extrapolated into a modeled scaling table (speedup vs K for
 *       dense/sparse x ring/tree x overlap on/off).
 *
 *   spgcnn engines
 *       List the engine registry: each engine's phases and where it
 *       applies.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "blas/gemm.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "data/synthetic.hh"
#include "distrib/data_parallel.hh"
#include "nn/checkpoint.hh"
#include "nn/trainer.hh"
#include "obs/drift.hh"
#include "obs/perfcnt.hh"
#include "obs/trace.hh"
#include "perf/region.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "simcpu/conv_model.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

/** Resolve --net into a config: a known name or a file path. */
NetConfig
resolveNet(const std::string &net)
{
    if (net == "mnist")
        return parseNetConfig(mnistNetConfigText());
    if (net == "cifar10")
        return parseNetConfig(cifar10NetConfigText());
    if (net == "imagenet100")
        return parseNetConfig(imagenet100NetConfigText());
    return parseNetConfigFile(net);
}

/** Make a synthetic dataset matching a network's input geometry. */
Dataset
datasetFor(const NetConfig &config, std::int64_t count)
{
    SyntheticSpec spec;
    spec.name = config.name + "-synthetic";
    spec.channels = config.channels;
    spec.height = config.height;
    spec.width = config.width;
    spec.classes = config.classes > 0
                       ? static_cast<int>(config.classes)
                       : 10;
    spec.count = count;
    return makeSynthetic(spec);
}

ConvSpec
specFromFlags(const CliParser &cli)
{
    ConvSpec spec = ConvSpec::square(
        cli.getInt("n"), cli.getInt("nf"), cli.getInt("nc"),
        cli.getInt("k"), cli.getInt("stride"));
    spec.validate();
    return spec;
}

int
cmdTrain(int argc, char **argv)
{
    CliParser cli("spgcnn train");
    cli.addString("net", "mnist",
                  "mnist | cifar10 | imagenet100 | config file path");
    cli.addInt("dataset-size", 256, "synthetic examples");
    cli.addInt("epochs", 5, "training epochs");
    cli.addInt("batch", 16, "minibatch size");
    cli.addDouble("lr", 0.05, "learning rate");
    cli.addString("mode", "auto", "auto (spg-CNN scheduler) | fixed");
    cli.addString("fp", "gemm-in-parallel", "FP engine for fixed mode");
    cli.addString("bp", "gemm-in-parallel", "BP engine for fixed mode");
    cli.addInt("threads", 0, "worker threads (0 = hardware)");
    cli.addString("prune", "",
                  "magnitude-pruning schedule "
                  "<target>[@<start>[:<ramp>]], e.g. 0.9@1:4");
    cli.addString("save", "", "write a checkpoint after training");
    cli.addString("load", "", "restore a checkpoint before training");
    cli.addString("trace", "",
                  "write a Chrome trace-event JSON to this path "
                  "(plus .metrics.json and .drift.json sidecars)");
    cli.parse(argc, argv);

    if (!cli.getString("trace").empty())
        obs::Tracer::global().enable(cli.getString("trace"));

    NetConfig config = resolveNet(cli.getString("net"));
    Network net(config, 1);
    net.describe();
    if (!cli.getString("load").empty())
        loadCheckpoint(net, cli.getString("load"));

    Dataset dataset = datasetFor(config, cli.getInt("dataset-size"));
    TrainerOptions options;
    options.epochs = static_cast<int>(cli.getInt("epochs"));
    options.batch = cli.getInt("batch");
    options.learning_rate = static_cast<float>(cli.getDouble("lr"));
    if (!cli.getString("prune").empty())
        options.prune = parsePruneSchedule(cli.getString("prune"));
    std::string mode = cli.getString("mode");
    if (mode == "fixed") {
        options.mode = TrainerOptions::Mode::Fixed;
        EngineAssignment fixed{cli.getString("fp"), cli.getString("bp"),
                               cli.getString("bp")};
        for (ConvLayer *conv : net.convLayers())
            conv->setEngines(fixed);
    } else if (mode != "auto") {
        fatal("--mode must be auto or fixed, got '%s'", mode.c_str());
    }

    ThreadPool pool(static_cast<int>(cli.getInt("threads")));
    Trainer trainer(net, dataset, options);
    auto history = trainer.run(pool);

    const auto &last = history.back();
    std::printf("\nfinal: loss %.4f  acc %.3f  %.0f images/s\n",
                last.mean_loss, last.accuracy,
                trainer.overallThroughput());
    auto convs = net.convLayers();
    for (std::size_t i = 0; i < convs.size(); ++i) {
        const auto &prof = convs[i]->profile();
        std::printf("  conv%zu (%s): FP=%s BP=%s, error sparsity "
                    "%.2f | time FP %.1fms BP %.1fms+%.1fms\n",
                    i, convs[i]->spec().str().c_str(),
                    last.conv_engines[i].fp.c_str(),
                    last.conv_engines[i].bp_data.c_str(),
                    last.conv_error_sparsity[i],
                    prof.fp_seconds * 1e3,
                    prof.bp_data_seconds * 1e3,
                    prof.bp_weights_seconds * 1e3);
    }

    if (!cli.getString("save").empty()) {
        saveCheckpoint(net, cli.getString("save"));
        inform("checkpoint written to %s",
               cli.getString("save").c_str());
    }

    if (!trainer.driftReport().empty()) {
        std::printf("\n");
        trainer.driftReport().print();
        if (obs::Tracer::global().enabled()) {
            std::string drift_path = obs::sidecarPath(
                obs::Tracer::global().path(), ".drift.json");
            trainer.driftReport().writeTo(drift_path);
            inform("drift report written to %s", drift_path.c_str());
        }
    }
    obs::finalize();
    return 0;
}

int
cmdCharacterize(int argc, char **argv)
{
    CliParser cli("spgcnn characterize");
    cli.addInt("n", 36, "input spatial size (square)");
    cli.addInt("nf", 64, "output features");
    cli.addInt("nc", 3, "input channels");
    cli.addInt("k", 5, "kernel size");
    cli.addInt("stride", 1, "stride");
    cli.addDouble("sparsity", 0.85, "BP error sparsity");
    cli.parse(argc, argv);

    ConvSpec spec = specFromFlags(cli);
    double sparsity = cli.getDouble("sparsity");

    std::printf("convolution %s -> %lldx%lld, %.1f MFlops/image\n",
                spec.str().c_str(),
                static_cast<long long>(spec.outY()),
                static_cast<long long>(spec.outX()),
                static_cast<double>(spec.flops()) / 1e6);
    std::printf("intrinsic AIT %.0f | unfolded AIT %.0f (r = %.2f)\n",
                spec.intrinsicAit(), spec.unfoldAit(),
                spec.unfoldRatio());
    std::printf("Fig. 1 region: %s (dense) / %s (at sparsity %.2f)\n",
                regionName(classifyRegion(spec, 0.0)).c_str(),
                regionName(classifyRegion(spec, sparsity)).c_str(),
                sparsity);
    TechniqueChoice rule = recommendTechniques(spec, sparsity);
    std::printf("paper rule: FP=%s  BP=%s\n", rule.fp.c_str(),
                rule.bp.c_str());

    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter sim("modeled Xeon E5-2650 per-core GFlops (FP)",
                     {"engine", "1 core", "16 cores"});
    for (const char *engine :
         {"parallel-gemm", "gemm-in-parallel", "stencil"}) {
        sim.addRow({engine,
                    TablePrinter::fmt(
                        modelConvPhase(machine, spec, Phase::Forward,
                                       engine, 64, 1)
                            .gflopsPerCore(),
                        1),
                    TablePrinter::fmt(
                        modelConvPhase(machine, spec, Phase::Forward,
                                       engine, 64, 16)
                            .gflopsPerCore(),
                        1)});
    }
    sim.print();
    return 0;
}

int
cmdTune(int argc, char **argv)
{
    CliParser cli("spgcnn tune");
    cli.addInt("n", 36, "input spatial size (square)");
    cli.addInt("nf", 64, "output features");
    cli.addInt("nc", 3, "input channels");
    cli.addInt("k", 5, "kernel size");
    cli.addInt("stride", 1, "stride");
    cli.addDouble("sparsity", 0.85, "BP error sparsity");
    cli.addDouble("weight-sparsity", 0.0,
                  "zero fraction of the measurement weights (CSR-"
                  "weights FP crossover)");
    cli.addInt("batch", 8, "measurement minibatch");
    cli.addInt("threads", 0, "worker threads (0 = hardware)");
    cli.parse(argc, argv);

    ConvSpec spec = specFromFlags(cli);
    TunerOptions topts;
    topts.batch = cli.getInt("batch");
    Tuner tuner(topts);
    ThreadPool pool(static_cast<int>(cli.getInt("threads")));
    LayerPlan plan =
        tuner.tune(spec, cli.getDouble("sparsity"), pool,
                   /*fused_relu=*/false,
                   cli.getDouble("weight-sparsity"));

    TablePrinter table("measured engine times for " + spec.str() +
                           " (" + std::to_string(pool.threads()) +
                           " thread(s))",
                       {"phase", "engine", "ms", "encode ms", "chosen"});
    for (Phase phase :
         {Phase::Forward, Phase::BackwardData, Phase::BackwardWeights}) {
        for (const auto &timing : plan.timings.at(phase)) {
            table.addRow({phaseName(phase), timing.engine,
                          TablePrinter::fmt(timing.seconds * 1e3, 3),
                          timing.encode_seconds > 0
                              ? TablePrinter::fmt(
                                    timing.encode_seconds * 1e3, 3)
                              : "",
                          timing.engine == plan.enginesFor(phase)
                              ? "<=="
                              : ""});
        }
    }
    table.print();
    return 0;
}

/**
 * Serving drift report: chosen per-bucket FP engines, measured by the
 * serving tuner, against the calibrated machine model evaluated at
 * each bucket's batch size (the trainer's joinDrift idiom, FP only).
 */
obs::DriftReport
servingDrift(const serve::Server &server, Network &net, int cores)
{
    obs::DriftReport drift;
    constexpr std::int64_t kDim = 256;
    std::vector<float> a(kDim * kDim, 1.0f), b(kDim * kDim, 0.5f),
        c(kDim * kDim, 0.0f);
    double gemm_seconds = bestTimeSeconds(3, [&] {
        sgemm(Trans::No, Trans::No, kDim, kDim, kDim, 1.0f, a.data(),
              kDim, b.data(), kDim, 0.0f, c.data(), kDim);
    });
    double gflops = 2.0 * kDim * kDim * kDim / gemm_seconds / 1e9;
    MachineModel machine = MachineModel::hostCalibrated(gflops);

    auto convs = net.convLayers();
    const auto &plans = server.servingPlans();
    for (std::size_t i = 0; i < plans.size() && i < convs.size(); ++i) {
        const ServingLayerPlan &plan = plans[i];
        for (std::size_t bi = 0; bi < plan.buckets.size(); ++bi) {
            const std::string &engine = plan.fp_engines[bi];
            if (!hasConvModel(engine))
                continue;
            const EngineTiming *timing = nullptr;
            for (const EngineTiming &t : plan.timings[bi])
                if (t.engine == engine)
                    timing = &t;
            if (timing == nullptr)
                continue;
            SimResult modeled_result = modelConvPhase(
                machine, convs[i]->spec(), Phase::Forward, engine,
                plan.buckets[bi], cores, /*sparsity=*/0.0,
                timing->chunk_map.empty() ? nullptr
                                          : &timing->chunk_map,
                convs[i]->fusedRelu(), plan.tuned_weight_sparsity);
            obs::DriftSample out;
            out.label = server.planLabels()[i] + " b" +
                        std::to_string(plan.buckets[bi]);
            out.phase = phaseName(Phase::Forward);
            out.engine = engine;
            out.layout = timing->layout;
            char region_buf[8];
            std::snprintf(region_buf, sizeof(region_buf), "R%d",
                          static_cast<int>(
                              classifyRegion(convs[i]->spec(), 0.0)));
            out.region = region_buf;
            out.measured_seconds = timing->seconds;
            out.modeled_seconds = modeled_result.seconds;
            drift.add(std::move(out));
        }
    }
    return drift;
}

int
cmdServe(int argc, char **argv)
{
    CliParser cli("spgcnn serve");
    cli.addString("net", "mnist",
                  "mnist | cifar10 | imagenet100 | config file path");
    cli.addInt("dataset-size", 64, "synthetic examples backing requests");
    cli.addInt("instances", 1, "concurrent model instances");
    cli.addInt("max-batch", 8, "largest coalesced batch");
    cli.addDouble("budget-ms", 2.0,
                  "dynamic-batching latency budget per request");
    cli.addInt("queue-cap", 256, "request queue bound");
    cli.addInt("threads", 1,
               "pool threads per instance (0 = hardware)");
    cli.addInt("tuner-reps", 3, "timed reps per tuner measurement");
    cli.addBool("no-tune", false,
                "skip the serving tuner (default engine everywhere)");
    cli.addDouble("rate", 100.0, "offered open-loop load, requests/s");
    cli.addDouble("duration", 2.0, "arrival window, seconds");
    cli.addDouble("slo-ms", 50.0, "latency SLO defining goodput");
    cli.addInt("seed", 1234, "arrival / image sampling seed");
    cli.addString("load", "", "restore a checkpoint into the replicas");
    cli.addString("trace", "",
                  "write a Chrome trace-event JSON to this path");
    cli.parse(argc, argv);

    if (!cli.getString("trace").empty())
        obs::Tracer::global().enable(cli.getString("trace"));

    NetConfig config = resolveNet(cli.getString("net"));
    serve::ServerOptions sopts;
    sopts.instances = static_cast<int>(cli.getInt("instances"));
    sopts.max_batch = cli.getInt("max-batch");
    sopts.batch_budget_ms = cli.getDouble("budget-ms");
    sopts.queue_capacity =
        static_cast<std::size_t>(cli.getInt("queue-cap"));
    sopts.threads_per_instance =
        static_cast<int>(cli.getInt("threads"));
    sopts.tune = !cli.getBool("no-tune");
    sopts.tuner_reps = static_cast<int>(cli.getInt("tuner-reps"));

    serve::Server server(config, sopts);
    Network &net = server.instanceNet(0);
    net.describe();
    if (!cli.getString("load").empty())
        server.loadWeights(cli.getString("load"));

    server.warmup();

    if (!server.servingPlans().empty()) {
        // Per-bucket serving plan next to the training-minibatch
        // choice, so the plan divergence is visible at a glance.
        TablePrinter table("serving plans (per coalesced-batch bucket)",
                           {"layer", "bucket", "engine", "ms",
                            "train plan"});
        Tuner train_tuner(TunerOptions{});
        auto convs = net.convLayers();
        ThreadPool tune_pool(sopts.threads_per_instance);
        for (std::size_t i = 0; i < convs.size(); ++i) {
            const ServingLayerPlan &plan = server.servingPlans()[i];
            LayerPlan train_plan = train_tuner.tune(
                convs[i]->spec(), /*sparsity=*/0.5, tune_pool,
                convs[i]->fusedRelu(), convs[i]->weightSparsity());
            for (std::size_t bi = 0; bi < plan.buckets.size(); ++bi) {
                double ms = 0;
                for (const EngineTiming &t : plan.timings[bi])
                    if (t.engine == plan.fp_engines[bi])
                        ms = t.seconds * 1e3;
                table.addRow(
                    {bi == 0 ? server.planLabels()[i] : "",
                     std::to_string(plan.buckets[bi]),
                     plan.fp_engines[bi], TablePrinter::fmt(ms, 3),
                     bi == 0 ? train_plan.fp_engine : ""});
            }
        }
        table.print();

        obs::DriftReport drift =
            servingDrift(server, net, tune_pool.threads());
        if (!drift.empty()) {
            std::printf("\nserving drift (measured vs modeled, per "
                        "bucket):\n");
            drift.print();
            if (obs::Tracer::global().enabled()) {
                std::string drift_path = obs::sidecarPath(
                    obs::Tracer::global().path(), ".drift.json");
                drift.writeTo(drift_path);
                inform("drift report written to %s",
                       drift_path.c_str());
            }
        }
    }

    Dataset dataset = datasetFor(config, cli.getInt("dataset-size"));
    serve::LoadGenOptions lopts;
    lopts.rate_qps = cli.getDouble("rate");
    lopts.duration_s = cli.getDouble("duration");
    lopts.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    lopts.slo_ms = cli.getDouble("slo-ms");

    obs::RaplReader &meter = obs::energyMeter();
    double joules_before =
        meter.available() ? meter.totalJoules() : 0.0;
    Stopwatch load_watch;
    server.start();
    serve::LoadGenResult res =
        serve::runOpenLoop(server, dataset, lopts);
    server.stop();
    double load_seconds = load_watch.seconds();
    double joules =
        meter.available() ? meter.totalJoules() - joules_before : -1.0;

    std::printf("\nopen-loop: offered %.1f qps for %.1fs "
                "(%lld requests)\n",
                res.offered_qps, lopts.duration_s,
                static_cast<long long>(res.submitted));
    std::printf("  completed %lld  rejected %lld  qps %.1f  "
                "goodput %.1f (SLO %.0fms)\n",
                static_cast<long long>(res.completed),
                static_cast<long long>(res.rejected), res.qps,
                res.goodput_qps, lopts.slo_ms);
    std::printf("  latency ms: p50 %.2f  p95 %.2f  p99 %.2f  "
                "max %.2f\n",
                res.p50_ms, res.p95_ms, res.p99_ms, res.max_ms);
    auto counters = server.counters();
    std::printf("  batches %lld  mean occupancy %.2f\n",
                static_cast<long long>(counters.batches),
                res.mean_batch);
    // Goodput per watt — the energy-aware figure of merit; "n/a"
    // columns on machines without RAPL access.
    if (joules >= 0 && load_seconds > 0) {
        double watts = joules / load_seconds;
        std::printf("  energy %.1f J  %.1f W  goodput/W %s\n", joules,
                    watts,
                    watts > 0
                        ? TablePrinter::fmt(res.goodput_qps / watts, 2)
                              .c_str()
                        : "n/a");
    } else {
        std::printf("  energy n/a  goodput/W n/a (RAPL unavailable)\n");
    }

    obs::finalize();
    return 0;
}

/**
 * One Table-1 layer per engine family: hardware-counter DRAM traffic
 * (LLC misses x cache line) next to the simcpu traffic model, and the
 * arithmetic intensities both imply. The standalone view of the drift
 * report's measured-vs-modeled traffic join; measured columns print
 * "n/a" on machines without perf_event access, and the command
 * succeeds either way.
 */
int
cmdCounters(int argc, char **argv)
{
    CliParser cli("spgcnn counters");
    cli.addInt("batch", 2, "measurement minibatch");
    cli.addInt("reps", 2, "timed reps per engine");
    cli.addInt("threads", 0, "worker threads (0 = hardware)");
    cli.parse(argc, argv);

    obs::perfInitFromEnv();
    std::printf("hardware counters: %s | RAPL energy: %s\n\n",
                obs::perfEnabled() ? "available" : "n/a",
                obs::energyMeter().available() ? "available" : "n/a");

    // One representative per engine family, on a Table 1 layer where
    // the family is at home: the small compute-bound ID 0 for the
    // GEMM / direct / CSR-weights families, the large-kernel ID 5 for
    // stencil. CSR-weights is measured at a post-pruning sparsity.
    struct Probe
    {
        const char *family;
        int table1_id;
        const char *engine;
        double weight_sparsity;
    };
    static const Probe kProbes[] = {
        {"gemm (data-parallel)", 0, "parallel-gemm", 0.0},
        {"gemm (model-parallel)", 0, "gemm-in-parallel", 0.0},
        {"stencil", 5, "stencil", 0.0},
        {"direct (NCHWc)", 0, "direct", 0.0},
        {"sparse-weights (CSR)", 0, "sparse-weights-direct", 0.9},
    };

    ThreadPool pool(static_cast<int>(cli.getInt("threads")));
    const std::int64_t batch = cli.getInt("batch");
    const int reps = static_cast<int>(cli.getInt("reps"));
    // Any machine works here: the traffic model's byte counts (and so
    // both AIT columns) do not depend on the machine constants.
    MachineModel machine = MachineModel::xeonE5_2650();

    TablePrinter table(
        "measured vs modeled FP traffic (batch " +
            std::to_string(batch) + ", " +
            std::to_string(pool.threads()) + " thread(s))",
        {"family", "T1", "engine", "ms", "model MB", "meas MB",
         "model AIT", "meas AIT", "meas/model"});
    for (const Probe &probe : kProbes) {
        const Table1Entry &entry =
            table1Convolutions()[static_cast<std::size_t>(
                probe.table1_id)];
        const ConvSpec &spec = entry.spec;
        auto engine = makeEngine(probe.engine);
        if (!engine || !engine->supports(Phase::Forward) ||
            !engine->appliesTo(spec, probe.weight_sparsity))
            continue;

        Rng rng(0xC0147E5);
        Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor weights(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
        Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        in.fillUniform(rng);
        weights.fillUniform(rng, -0.5f, 0.5f);
        if (probe.weight_sparsity > 0)
            weights.sparsify(rng, probe.weight_sparsity);

        const bool perf_on = obs::perfEnabled();
        obs::PerfSample own0, pool0;
        if (perf_on) {
            own0 = obs::perfReadThread();
            pool0 = pool.perfTotals();
        }
        double seconds = bestTimeSeconds(reps, [&] {
            engine->forward(spec, in, weights, out, pool);
        });
        double measured_mb = -1;
        if (perf_on) {
            obs::PerfSample d = obs::perfReadThread().delta(own0);
            d.accumulate(pool.perfTotals().delta(pool0));
            double bytes = d.llcMissBytes();
            if (bytes >= 0)
                measured_mb = bytes / (reps + 1) / 1e6;
        }

        SimResult modeled = modelConvPhase(
            machine, spec, Phase::Forward, probe.engine, batch,
            pool.threads(), /*sparsity=*/0.0, nullptr,
            /*fused_relu=*/false, probe.weight_sparsity);
        double model_mb = modeled.total_bytes / 1e6;
        double flops = modeled.total_flops;
        table.addRow(
            {probe.family, std::to_string(probe.table1_id),
             probe.engine, TablePrinter::fmt(seconds * 1e3, 3),
             TablePrinter::fmt(model_mb, 2),
             measured_mb >= 0 ? TablePrinter::fmt(measured_mb, 2)
                              : "n/a",
             model_mb > 0 ? TablePrinter::fmt(flops / (model_mb * 1e6),
                                              1)
                          : "n/a",
             measured_mb > 0
                 ? TablePrinter::fmt(flops / (measured_mb * 1e6), 1)
                 : "n/a",
             measured_mb > 0 && model_mb > 0
                 ? TablePrinter::fmt(measured_mb / model_mb, 2)
                 : "n/a"});
    }
    table.print();
    std::printf("\nmodel MB: simcpu modelConvPhase traffic; meas MB: "
                "LLC misses x %.0f bytes over warmup + %d reps "
                "(per-execution average)\n",
                obs::kCacheLineBytes, reps);
    return 0;
}

/**
 * The scaling sweep behind both the printed table and the JSON: the
 * measured profile extrapolated to every K in `workers` under all
 * eight exchange policies (dense/sparse x ring/tree x overlap
 * on/off). "sparse" charges the wire bytes the run actually measured,
 * so it only differs from dense when a sparse --grad-compress ran.
 */
void
clusterScalingRows(const StepProfile &prof,
                   const std::vector<int> &workers,
                   const ClusterLink &link, const std::string &comp,
                   obs::DriftReport &drift)
{
    for (bool sparse : {false, true}) {
        for (AllreduceAlgo algo :
             {AllreduceAlgo::Ring, AllreduceAlgo::Tree}) {
            for (bool overlap : {false, true}) {
                std::string config =
                    std::string(sparse ? comp.c_str() : "dense") + "+" +
                    allreduceAlgoName(algo) +
                    (overlap ? "+ovl" : "+block");
                for (int k : workers) {
                    ScalingPoint pt = modelScaling(prof, k, algo, link,
                                                   overlap, sparse);
                    obs::ScalingRow row;
                    row.config = config;
                    row.workers = k;
                    row.step_ms = pt.step_s * 1e3;
                    row.comm_ms = pt.comm_s * 1e3;
                    row.overlap_frac = pt.overlap_frac;
                    row.speedup = pt.speedup;
                    row.efficiency = pt.efficiency();
                    drift.addScaling(row);
                }
            }
        }
    }
}

int
cmdCluster(int argc, char **argv)
{
    CliParser cli("spgcnn cluster");
    cli.addString("net", "mnist",
                  "mnist | cifar10 | imagenet100 | config file path");
    cli.addInt("dataset-size", 128, "synthetic examples");
    cli.addInt("workers", 4, "model replicas (K)");
    cli.addInt("global-batch", 32,
               "global minibatch, split evenly across workers");
    cli.addInt("epochs", 1, "training epochs");
    cli.addDouble("lr", 0.05, "learning rate");
    cli.addString("grad-compress", "dense",
                  "wire encoding: dense | threshold:<t> "
                  "(threshold:0 = lossless sparse) | topk:<frac>");
    cli.addString("allreduce", "ring", "schedule family: ring | tree");
    cli.addBool("no-overlap", false,
                "block the exchange until the full backward pass ends");
    cli.addDouble("link-gbs", 1.25,
                  "modeled per-link bandwidth, GB/s (1.25 = 10 GbE)");
    cli.addDouble("latency-us", 25.0,
                  "modeled per-message link latency, microseconds");
    cli.addBool("tune", false,
                "deploy tuner-chosen per-layer engine plans on every "
                "replica");
    cli.addInt("threads", 0, "worker threads (0 = hardware)");
    cli.addString("sweep", "1,2,4,8,16",
                  "modeled worker counts for the scaling table");
    cli.addString("json-file", "",
                  "write the modeled scaling JSON to this path");
    cli.parse(argc, argv);

    NetConfig config = resolveNet(cli.getString("net"));
    Dataset dataset = datasetFor(config, cli.getInt("dataset-size"));

    DataParallelOptions opts;
    opts.workers = static_cast<int>(cli.getInt("workers"));
    opts.global_batch = cli.getInt("global-batch");
    opts.epochs = static_cast<int>(cli.getInt("epochs"));
    opts.learning_rate = static_cast<float>(cli.getDouble("lr"));
    opts.tune = cli.getBool("tune");
    opts.exchange.compress =
        parseGradCompress(cli.getString("grad-compress"));
    opts.exchange.algo = parseAllreduceAlgo(cli.getString("allreduce"));
    opts.exchange.overlap = !cli.getBool("no-overlap");
    opts.exchange.link.bandwidth_gbs = cli.getDouble("link-gbs");
    opts.exchange.link.latency_s = cli.getDouble("latency-us") * 1e-6;

    DataParallelTrainer trainer(config, 1, dataset, opts);
    ThreadPool pool(static_cast<int>(cli.getInt("threads")));
    auto history = trainer.run(pool);

    TablePrinter table(
        "data-parallel training (K=" + std::to_string(opts.workers) +
            ", " + gradCompressName(opts.exchange.compress) + ", " +
            allreduceAlgoName(opts.exchange.algo) +
            (opts.exchange.overlap ? ", overlapped" : ", blocking") +
            ")",
        {"epoch", "loss", "acc", "host s", "wire MB", "ratio", "ovl",
         "model step ms"});
    for (const DataParallelEpoch &e : history)
        table.addRow({TablePrinter::fmt(
                          static_cast<long long>(e.epoch)),
                      TablePrinter::fmt(e.mean_loss, 4),
                      TablePrinter::fmt(e.accuracy, 3),
                      TablePrinter::fmt(e.compute_seconds, 2),
                      TablePrinter::fmt(e.wire_bytes / 1e6, 2),
                      TablePrinter::fmt(e.compression_ratio, 2) + "x",
                      TablePrinter::fmt(e.overlap_frac, 2),
                      TablePrinter::fmt(e.modeled_step_seconds * 1e3,
                                        3)});
    table.print();

    const auto &deployed = trainer.deployedEngines();
    auto convs = trainer.replica(0).convLayers();
    for (std::size_t i = 0; i < deployed.size(); ++i)
        std::printf("  conv%zu (%s): FP=%s BP=%s/%s\n", i,
                    convs[i]->spec().str().c_str(),
                    deployed[i].fp.c_str(), deployed[i].bp_data.c_str(),
                    deployed[i].bp_weights.c_str());

    std::vector<int> sweep;
    {
        std::string spec = cli.getString("sweep");
        std::size_t pos = 0;
        while (pos < spec.size()) {
            std::size_t comma = spec.find(',', pos);
            if (comma == std::string::npos)
                comma = spec.size();
            int k = std::atoi(spec.substr(pos, comma - pos).c_str());
            if (k < 1)
                fatal("bad --sweep entry in '%s'", spec.c_str());
            sweep.push_back(k);
            pos = comma + 1;
        }
    }

    obs::DriftReport drift;
    clusterScalingRows(trainer.profile(), sweep, opts.exchange.link,
                       gradCompressName(opts.exchange.compress),
                       drift);
    std::printf("\n");
    drift.print();
    std::printf("(measured single-node profile on this host; modeled "
                "rows assume perfect compute scaling — see "
                "EXPERIMENTS.md for the caveat)\n");

    if (!cli.getString("json-file").empty()) {
        std::string out = "{\n  \"bench\": \"cluster\",\n";
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  \"workers\": %d,\n  \"global_batch\": %lld,\n"
                      "  \"wire_mb\": %.4f,\n"
                      "  \"compression_x\": %.4f,\n  \"points\": [",
                      opts.workers,
                      static_cast<long long>(opts.global_batch),
                      history.back().wire_bytes / 1e6,
                      history.back().compression_ratio);
        out += buf;
        bool first = true;
        for (const obs::ScalingRow &row : drift.scaling()) {
            out += first ? "\n    " : ",\n    ";
            first = false;
            std::snprintf(buf, sizeof(buf),
                          "{\"config\": \"%s\", \"workers\": %d, "
                          "\"step_ms\": %.4f, \"comm_ms\": %.4f, "
                          "\"overlap_frac\": %.4f, "
                          "\"modeled_speedup\": %.4f}",
                          row.config.c_str(), row.workers, row.step_ms,
                          row.comm_ms, row.overlap_frac, row.speedup);
            out += buf;
        }
        out += "\n  ]\n}\n";
        std::FILE *f =
            std::fopen(cli.getString("json-file").c_str(), "w");
        if (f == nullptr)
            fatal("cannot write '%s'",
                  cli.getString("json-file").c_str());
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        inform("scaling JSON written to %s",
               cli.getString("json-file").c_str());
    }
    return 0;
}

int
cmdEngines()
{
    // Where each engine applies, probed through its own predicate.
    const ConvSpec k3 = ConvSpec::square(8, 1, 1, 3);
    const ConvSpec k5 = ConvSpec::square(8, 1, 1, 5);
    TablePrinter table("engine registry (oracle: reference)",
                       {"engine", "FP", "BP-data", "BP-weights",
                        "applies to"});
    for (const auto &engine : makeEngines()) {
        auto mark = [&](Phase phase) {
            return engine->supports(phase) ? "x" : "";
        };
        std::string where = "every layer";
        if (!engine->appliesTo(k5, 0.0))
            where = engine->appliesTo(k3, 0.0) ? "3x3 stride-1 layers"
                                               : "pruned layers";
        table.addRow({engine->name(), mark(Phase::Forward),
                      mark(Phase::BackwardData),
                      mark(Phase::BackwardWeights), where});
    }
    table.print();
    return 0;
}

void
usage()
{
    std::printf(
        "usage: spgcnn <train|characterize|tune|serve|counters|"
        "cluster|engines> [flags]\n"
        "run 'spgcnn <subcommand> --help' for the flag list\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    obs::initFromEnv();
    obs::setCurrentThreadName("main");
    std::string cmd = argv[1];
    // Shift the subcommand out of argv for the flag parsers.
    argv[1] = argv[0];
    if (cmd == "train")
        return cmdTrain(argc - 1, argv + 1);
    if (cmd == "characterize")
        return cmdCharacterize(argc - 1, argv + 1);
    if (cmd == "tune")
        return cmdTune(argc - 1, argv + 1);
    if (cmd == "serve")
        return cmdServe(argc - 1, argv + 1);
    if (cmd == "counters")
        return cmdCounters(argc - 1, argv + 1);
    if (cmd == "cluster")
        return cmdCluster(argc - 1, argv + 1);
    if (cmd == "engines")
        return cmdEngines();
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
    usage();
    return 1;
}
