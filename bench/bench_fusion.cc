/**
 * @file
 * Measures what epilogue fusion buys (MEASURED, this host):
 *
 *  - Per Table 1 layer: conv+ReLU FP as the unfused network runs it
 *    (engine pass, then a standalone elementwise ReLU over the output)
 *    vs the fused engine call applying ReLU in the epilogue while each
 *    output tile is hot; and the BP side (standalone ReLU-backward
 *    masking the error tensor, then the 5-arg engine) vs the mask-fused
 *    engine consuming the raw error plus the FP byte mask.
 *
 *  - End-to-end: two identically-seeded networks, fuse_epilogues on
 *    and off, timed over the same training minibatches, plus the
 *    liveness-planned activation arena high-water mark vs the
 *    unplanned sum of the inter-layer buffers.
 *
 * Both variants are verified bit-for-bit before anything is timed.
 * Results go to a table and to BENCH_fusion.json so tools/bench_compare
 * can track the trajectory across PRs.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "core/net_config.hh"
#include "data/suites.hh"
#include "nn/network.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

template <typename Fn>
double
timeOnce(Fn &&fn)
{
    Stopwatch watch;
    fn();
    return watch.seconds();
}

std::vector<int>
parseIds(const std::string &csv)
{
    std::vector<int> ids;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            ids.push_back(std::stoi(item));
    return ids;
}

struct Measurement
{
    double fp_unfused = 0;  ///< engine FP + standalone ReLU pass
    double fp_fused = 0;    ///< engine FP with ReLU-mask epilogue
    double bp_unfused = 0;  ///< ReLU-backward pass + 5-arg BP engines
    double bp_fused = 0;    ///< mask-fused BP engines on the raw error
};

Measurement
measureOne(const ConvSpec &spec, const ConvEngine &engine,
           std::int64_t batch, int reps, ThreadPool &pool)
{
    Rng rng(4000 + spec.nf + spec.nx);
    Shape oshape{batch, spec.nf, spec.outY(), spec.outX()};
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(oshape);
    in.fillUniform(rng);
    w.fillUniform(rng, -0.5f, 0.5f);
    eo.fillUniform(rng);

    Tensor pre(oshape);        // unfused conv output (pre-activation)
    Tensor act_a(oshape);      // unfused post-ReLU activations
    Tensor act_b(oshape);      // fused post-ReLU activations
    Tensor eo_masked(oshape);  // unfused ReLU-backward output
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(
                                       eo.size()),
                                   0);
    Tensor ei_a(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor ei_b(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor dw_a(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor dw_b(Shape{spec.nf, spec.nc, spec.fy, spec.fx});

    // The standalone passes use the same pool partitioning the
    // unfused network's ReluLayer uses, so the comparison stays fair
    // at any core count.
    auto run_fp_unfused = [&] {
        engine.forward(spec, in, w, pre, pool);
        float *src = pre.data();
        float *dst = act_a.data();
        pool.parallelFor(pre.size(),
                         [&](std::int64_t b, std::int64_t e, int) {
                             for (std::int64_t i = b; i < e; ++i)
                                 dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
                         });
    };
    auto run_fp_fused = [&] {
        engine.forward(spec, in, w, act_b, pool,
                       Epilogue{Epilogue::Kind::ReluMask, mask.data()});
    };
    auto run_bp_unfused = [&] {
        // ReLU backward gates on the saved activations, exactly as
        // ReluLayer::backward does in the unfused network.
        const float *act = act_a.data();
        const float *src = eo.data();
        float *dst = eo_masked.data();
        pool.parallelFor(eo.size(),
                         [&](std::int64_t b, std::int64_t e, int) {
                             for (std::int64_t i = b; i < e; ++i)
                                 dst[i] = act[i] > 0.0f ? src[i] : 0.0f;
                         });
        engine.backwardData(spec, eo_masked, w, ei_a, pool);
        engine.backwardWeights(spec, eo_masked, in, dw_a, pool);
    };
    auto run_bp_fused = [&] {
        BpMask bp{mask.data()};
        engine.backwardData(spec, eo, w, ei_b, pool, bp);
        engine.backwardWeights(spec, eo, in, dw_b, pool, bp);
    };

    // Warm both variants once and require bit-for-bit equality: the
    // fusion contract is exactness, not approximation.
    run_fp_unfused();
    run_fp_fused();
    for (std::int64_t i = 0; i < act_a.size(); ++i)
        if (act_a.data()[i] != act_b.data()[i])
            fatal("fused FP diverged at %lld",
                  static_cast<long long>(i));
    run_bp_unfused();
    run_bp_fused();
    for (std::int64_t i = 0; i < ei_a.size(); ++i)
        if (ei_a.data()[i] != ei_b.data()[i])
            fatal("fused BP-data diverged at %lld",
                  static_cast<long long>(i));
    for (std::int64_t i = 0; i < dw_a.size(); ++i)
        if (dw_a.data()[i] != dw_b.data()[i])
            fatal("fused BP-weights diverged at %lld",
                  static_cast<long long>(i));

    // Interleave the timed reps so clock-frequency drift hits both
    // variants equally; report the best rep of each.
    Measurement m;
    m.fp_unfused = m.fp_fused = m.bp_unfused = m.bp_fused = 1e30;
    for (int r = 0; r < reps; ++r) {
        m.fp_unfused = std::min(m.fp_unfused, timeOnce(run_fp_unfused));
        m.fp_fused = std::min(m.fp_fused, timeOnce(run_fp_fused));
        m.bp_unfused = std::min(m.bp_unfused, timeOnce(run_bp_unfused));
        m.bp_fused = std::min(m.bp_fused, timeOnce(run_bp_fused));
    }
    return m;
}

struct NetMeasurement
{
    double fused_step = 0;
    double unfused_step = 0;
    std::int64_t arena_bytes = 0;
    std::int64_t arena_unplanned_bytes = 0;
    std::int64_t fused_pairs = 0;
};

NetMeasurement
measureNetwork(const std::string &config_text, std::int64_t batch,
               int steps, ThreadPool &pool)
{
    NetConfig fused_cfg = parseNetConfig(config_text);
    NetConfig plain_cfg = fused_cfg;
    fused_cfg.fuse_epilogues = true;
    plain_cfg.fuse_epilogues = false;
    Network fused(fused_cfg, 42);
    Network plain(plain_cfg, 42);

    Rng rng(31);
    Geometry geom = fused.inputGeometry();
    Tensor images(Shape{batch, geom.c, geom.h, geom.w});
    std::vector<int> labels(static_cast<std::size_t>(batch));

    NetMeasurement m;
    m.fused_step = m.unfused_step = 1e30;
    // One untimed warm-up step allocates buffers and warms the plan
    // caches; then each timed step feeds both variants the same batch
    // and checks they agree bit-for-bit on the loss.
    for (int step = 0; step <= steps; ++step) {
        images.fillUniform(rng, -1.0f, 1.0f);
        for (auto &label : labels)
            label = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(fused.classes())));
        StepStats sa, sb;
        double ta =
            timeOnce([&] { sa = fused.trainStep(images, labels, 0.05f,
                                                pool); });
        double tb =
            timeOnce([&] { sb = plain.trainStep(images, labels, 0.05f,
                                                pool); });
        if (sa.loss != sb.loss)
            fatal("fused network loss diverged at step %d", step);
        if (step == 0)
            continue;
        m.fused_step = std::min(m.fused_step, ta);
        m.unfused_step = std::min(m.unfused_step, tb);
    }
    m.arena_bytes = fused.arenaBytes();
    m.arena_unplanned_bytes = fused.arenaUnplannedBytes();
    m.fused_pairs = fused.fusedPairs();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Epilogue fusion: conv+ReLU with standalone "
                  "elementwise passes vs fused engine epilogues / BP "
                  "masks, plus the end-to-end network and its "
                  "liveness-planned activation arena (MEASURED)");
    addCommonFlags(cli);
    cli.addString("ids", "0,2,5",
                  "comma-separated Table 1 convolution ids");
    cli.addInt("reps", 5, "timed repetitions (best-of)");
    cli.addInt("measure-batch", 2, "per-layer minibatch size per rep");
    cli.addString("engine", "gemm-in-parallel",
                  "conv engine to measure fusion on");
    cli.addInt("cores", 1, "worker pool size");
    cli.addString("net", "mnist",
                  "end-to-end network (mnist, cifar10, '' to skip)");
    cli.addInt("net-batch", 16, "end-to-end minibatch size");
    cli.addInt("net-steps", 3, "timed end-to-end training steps");
    cli.addString("json-file", "BENCH_fusion.json",
                  "machine-readable output path ('' to skip)");
    cli.parse(argc, argv);

    int reps = static_cast<int>(cli.getInt("reps"));
    std::int64_t batch = cli.getInt("measure-batch");
    int cores = static_cast<int>(cli.getInt("cores"));
    ThreadPool pool(cores);

    auto engine = makeEngine(cli.getString("engine"));
    if (!engine)
        fatal("unknown engine '%s'", cli.getString("engine").c_str());

    TablePrinter table(
        "Epilogue fusion on Table 1 geometries (engine " +
            cli.getString("engine") + ", batch " +
            std::to_string(batch) + ", " + std::to_string(cores) +
            " core(s), MEASURED)",
        {"ID", "spec", "FP unfused ms", "FP fused ms", "FP speedup",
         "BP unfused ms", "BP fused ms", "BP speedup"});

    std::ostringstream json;
    json << "{\n  \"bench\": \"fusion\",\n  \"reps\": " << reps
         << ",\n  \"batch\": " << batch << ",\n  \"engine\": \""
         << cli.getString("engine") << "\",\n  \"layers\": [";

    bool first = true;
    for (int id : parseIds(cli.getString("ids"))) {
        const auto &entries = table1Convolutions();
        auto it =
            std::find_if(entries.begin(), entries.end(),
                         [&](const auto &e) { return e.id == id; });
        if (it == entries.end())
            fatal("no Table 1 convolution with id %d", id);
        const ConvSpec &spec = it->spec;

        Measurement m = measureOne(spec, *engine, batch, reps, pool);
        double fp_speedup = m.fp_unfused / m.fp_fused;
        double bp_speedup = m.bp_unfused / m.bp_fused;
        table.addRow({
            TablePrinter::fmt(static_cast<long long>(id)),
            spec.str(),
            TablePrinter::fmt(m.fp_unfused * 1e3, 2),
            TablePrinter::fmt(m.fp_fused * 1e3, 2),
            TablePrinter::fmt(fp_speedup, 3),
            TablePrinter::fmt(m.bp_unfused * 1e3, 2),
            TablePrinter::fmt(m.bp_fused * 1e3, 2),
            TablePrinter::fmt(bp_speedup, 3),
        });
        json << (first ? "" : ",") << "\n    {\"id\": " << id
             << ", \"spec\": \"" << spec.str()
             << "\", \"seconds\": {\"fp_unfused\": " << m.fp_unfused
             << ", \"fp_fused\": " << m.fp_fused
             << ", \"bp_unfused\": " << m.bp_unfused
             << ", \"bp_fused\": " << m.bp_fused
             << "}, \"fp_speedup\": " << fp_speedup
             << ", \"bp_speedup\": " << bp_speedup << "}";
        first = false;
    }
    json << "\n  ]";
    emit(cli, table);

    std::string net = cli.getString("net");
    if (!net.empty()) {
        std::string text;
        if (net == "mnist")
            text = mnistNetConfigText();
        else if (net == "cifar10")
            text = cifar10NetConfigText();
        else
            fatal("unknown net '%s'", net.c_str());
        std::int64_t net_batch = cli.getInt("net-batch");
        int net_steps = static_cast<int>(cli.getInt("net-steps"));
        NetMeasurement nm =
            measureNetwork(text, net_batch, net_steps, pool);
        double speedup = nm.unfused_step / nm.fused_step;
        double ratio = nm.arena_unplanned_bytes > 0
                           ? static_cast<double>(nm.arena_bytes) /
                                 static_cast<double>(
                                     nm.arena_unplanned_bytes)
                           : 0.0;
        TablePrinter nt("End-to-end " + net + " (batch " +
                            std::to_string(net_batch) +
                            ", fused vs unfused, MEASURED)",
                        {"step unfused ms", "step fused ms", "speedup",
                         "fused pairs", "arena MiB", "unplanned MiB",
                         "arena ratio"});
        nt.addRow({
            TablePrinter::fmt(nm.unfused_step * 1e3, 2),
            TablePrinter::fmt(nm.fused_step * 1e3, 2),
            TablePrinter::fmt(speedup, 3),
            TablePrinter::fmt(
                static_cast<long long>(nm.fused_pairs)),
            TablePrinter::fmt(nm.arena_bytes / (1024.0 * 1024.0), 2),
            TablePrinter::fmt(
                nm.arena_unplanned_bytes / (1024.0 * 1024.0), 2),
            TablePrinter::fmt(ratio, 3),
        });
        emit(cli, nt);
        json << ",\n  \"network\": {\"name\": \"" << net
             << "\", \"batch\": " << net_batch
             << ", \"steps\": " << net_steps
             << ", \"seconds_per_step\": {\"fused\": " << nm.fused_step
             << ", \"unfused\": " << nm.unfused_step
             << "}, \"speedup\": " << speedup
             << ", \"fused_pairs\": " << nm.fused_pairs
             << ", \"arena_bytes\": " << nm.arena_bytes
             << ", \"arena_unplanned_bytes\": "
             << nm.arena_unplanned_bytes
             << ", \"arena_ratio\": " << ratio << "}";
    }
    json << "\n}\n";

    std::string path = cli.getString("json-file");
    if (!path.empty()) {
        std::ofstream f(path);
        if (!f)
            fatal("cannot write '%s'", path.c_str());
        f << json.str();
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
