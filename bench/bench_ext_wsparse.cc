/**
 * @file
 * Extension bench: forward propagation under WEIGHT sparsity (pruned
 * models) — the Fig. 4-style crossover of the CSR-weights engine.
 *
 * Per Table 1 layer and per pruning level, measures (MEASURED, this
 * host):
 *
 *  - dense baseline: gemm-in-parallel, oblivious to weight zeros;
 *  - "direct": the register-tiled sparse-weights-direct engine,
 *    running WARM on its cached CSR plan;
 *  - the once-per-weight-version CSR encode cost (cold call through
 *    WeightPlanCache, reported informationally as encode_ms).
 *
 * Every direct result is verified bit-for-bit against the reference
 * engine before timing. Repetitions are interleaved across the two
 * engines so clock drift hits both equally. Results go to a table and
 * BENCH_wsparse.json for tools/bench_compare.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "conv/engine_sparse_direct.hh"
#include "conv/engines.hh"
#include "conv/weight_plans.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

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

std::vector<double>
parseSparsities(const std::string &csv)
{
    std::vector<double> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(std::stod(item));
    return out;
}

struct Point
{
    double weight_sparsity = 0;   ///< actual zero fraction measured at
    double dense_seconds = 0;
    double direct_seconds = 0;
    double encode_seconds = 0;    ///< once-per-weight-version CSR build
    double speedupVsDense() const
    {
        return direct_seconds > 0 ? dense_seconds / direct_seconds : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli(
        "Weight-sparsity FP crossover: dense gemm-in-parallel vs the "
        "register-tiled sparse-weights-direct engine across pruning "
        "levels (MEASURED)");
    addCommonFlags(cli);
    cli.addString("ids", "0,5",
                  "comma-separated Table 1 convolution ids");
    cli.addString("sparsities", "0,0.5,0.7,0.8,0.9,0.95",
                  "comma-separated weight zero fractions");
    cli.addInt("reps", 3, "timed repetitions (best-of)");
    cli.addInt("bench-batch", 2, "minibatch size of the measurement");
    cli.addInt("max-spatial", 64,
               "cap nx/ny of huge Table 1 layers to keep the bench "
               "tractable (0 = full size)");
    cli.addInt("cores", 0, "worker pool size (0 = hardware threads)");
    cli.addBool("tuner", true,
                "also run the tuner at the highest sparsity and report "
                "its FP pick");
    cli.addString("json-file", "BENCH_wsparse.json",
                  "machine-readable output path ('' to skip)");
    cli.parse(argc, argv);

    int reps = static_cast<int>(cli.getInt("reps"));
    std::int64_t cap = cli.getInt("max-spatial");
    std::int64_t batch = cli.getInt("bench-batch");
    int cores = static_cast<int>(cli.getInt("cores"));
    if (cores <= 0)
        cores = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    ThreadPool pool(cores);
    std::vector<double> sparsities =
        parseSparsities(cli.getString("sparsities"));

    TablePrinter table(
        "CSR-weights FP engine vs dense per pruning level (" +
            std::to_string(cores) + " core(s), batch " +
            std::to_string(batch) + ", best of " +
            std::to_string(reps) + ", MEASURED)",
        {"ID", "spec", "w-sparsity", "dense ms", "direct ms",
         "direct/dense", "encode ms"});

    std::ostringstream json;
    json << "{\n  \"bench\": \"wsparse\",\n  \"reps\": " << reps
         << ",\n  \"cores\": " << cores << ",\n  \"batch\": " << batch
         << ",\n  \"layers\": [";

    GemmInParallelEngine dense;
    SparseDirectFpEngine direct;
    ReferenceEngine reference;
    WeightPlanCache &wcache = WeightPlanCache::global();

    bool first_layer = true;
    for (int id : parseIds(cli.getString("ids"))) {
        const auto &entries = table1Convolutions();
        auto it =
            std::find_if(entries.begin(), entries.end(),
                         [&](const auto &e) { return e.id == id; });
        if (it == entries.end())
            fatal("no Table 1 convolution with id %d", id);
        ConvSpec spec = it->spec;
        if (cap > 0 && (spec.nx > cap || spec.ny > cap)) {
            spec.nx = std::min(spec.nx, cap);
            spec.ny = std::min(spec.ny, cap);
        }
        spec.validate();

        Rng rng(9000 + id);
        Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
        Tensor ref(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
        in.fillUniform(rng);
        out.fill(0.0f);

        json << (first_layer ? "" : ",") << "\n    {\"id\": " << id
             << ", \"spec\": \"" << spec.str() << "\", \"points\": [";
        first_layer = false;

        bool first_point = true;
        for (double p : sparsities) {
            Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
            w.fillUniform(rng, -0.5f, 0.5f);
            Rng prng(13 + id);
            w.sparsify(prng, p);

            Point pt;
            pt.weight_sparsity = w.sparsity();

            // Correctness gate before any timing: the direct engine is
            // bit-for-bit with the reference at every sparsity.
            reference.forward(spec, in, w, ref, pool);
            direct.forward(spec, in, w, out, pool);
            if (maxAbsDiff(out, ref) != 0.0f)
                fatal("sparse-weights-direct diverged from reference "
                      "at id %d sparsity %.2f (maxdiff %g)",
                      id, p, maxAbsDiff(out, ref));

            // Cold encode cost, once per weight version. The verify
            // call above already built the plan; rebuild from cold so
            // the measurement is honest.
            wcache.invalidate(w.data());
            auto before = wcache.stats();
            direct.forward(spec, in, w, out, pool);
            pt.encode_seconds =
                wcache.stats().encode_seconds - before.encode_seconds;

            // Warm steady-state timing, reps interleaved across both
            // engines.
            pt.dense_seconds = pt.direct_seconds = 1e30;
            for (int rep = 0; rep < reps; ++rep) {
                pt.dense_seconds =
                    std::min(pt.dense_seconds, bestTimeSeconds(1, [&] {
                                 dense.forward(spec, in, w, out, pool);
                             }));
                pt.direct_seconds =
                    std::min(pt.direct_seconds,
                             bestTimeSeconds(1, [&] {
                                 direct.forward(spec, in, w, out, pool);
                             }));
            }

            table.addRow({
                TablePrinter::fmt(static_cast<long long>(id)),
                spec.str(),
                TablePrinter::fmt(pt.weight_sparsity, 2),
                TablePrinter::fmt(pt.dense_seconds * 1e3, 2),
                TablePrinter::fmt(pt.direct_seconds * 1e3, 2),
                TablePrinter::fmt(pt.speedupVsDense(), 2),
                TablePrinter::fmt(pt.encode_seconds * 1e3, 3),
            });
            json << (first_point ? "" : ",")
                 << "\n      {\"weight_sparsity\": "
                 << pt.weight_sparsity
                 << ", \"seconds\": {\"dense\": " << pt.dense_seconds
                 << ", \"direct\": " << pt.direct_seconds
                 << "}, \"speedup_direct_vs_dense\": "
                 << pt.speedupVsDense()
                 << ", \"encode_ms\": " << pt.encode_seconds * 1e3
                 << "}";
            first_point = false;
        }
        json << "\n    ]";

        // The scheduler's view at the deepest pruning level: does the
        // crossover actually deploy a CSR-weights engine here?
        if (cli.getBool("tuner") && !sparsities.empty()) {
            double deepest =
                *std::max_element(sparsities.begin(), sparsities.end());
            TunerOptions topts;
            topts.reps = reps;
            topts.batch = batch;
            Tuner tuner(topts);
            LayerPlan plan = tuner.tune(spec, 0.0, pool,
                                        /*fused_relu=*/false, deepest);
            std::printf("tuner (id %d, weight sparsity %.2f): FP -> "
                        "%s\n",
                        id, plan.tuned_weight_sparsity,
                        plan.fp_engine.c_str());
            json << ", \"tuner_fp_at_deepest\": \"" << plan.fp_engine
                 << "\"";
        }
        json << "}";
    }
    json << "\n  ]\n}\n";

    emit(cli, table);

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
