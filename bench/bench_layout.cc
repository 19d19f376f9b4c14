/**
 * @file
 * Blocked NCHWc layout + direct engine crossover study (MEASURED).
 *
 * Per Table 1 convolution and per minibatch size (a training batch and
 * a batch-1/-4 serving point), measures each phase on the direct
 * NCHWc register-tiled engine against the best of the pre-existing
 * engines, plus the share of a direct FP call spent staging its
 * activations: the input NCHW->NCHWc pack and the output NCHWc->NCHW
 * unpack, timed alone with the engine's own kernels and fan-out. The
 * engine pays that staging inside every call, so a Tuner run at the
 * same shapes shows whether the scheduler auto-picks the direct engine
 * with the staging cost already in its measurement.
 *
 * Results go to a table and BENCH_layout.json so tools/bench_compare
 * can track the crossover across PRs.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "conv/engine_direct.hh"
#include "conv/engines.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "tensor/blocked.hh"
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

const char *
phaseKey(Phase phase)
{
    switch (phase) {
      case Phase::Forward:
        return "fp";
      case Phase::BackwardData:
        return "bp_data";
      case Phase::BackwardWeights:
        return "bp_weights";
    }
    return "?";
}

/** One timed run of one engine on one phase, plain NCHW operands (the
 *  staged form). @p result is the pre-allocated (warm) output tensor
 *  of the phase, shared across engines and repetitions so no timed
 *  call pays first-touch page faults. */
double
measurePhaseOnce(const ConvEngine &engine, Phase phase,
                 const ConvSpec &spec, const Tensor &in,
                 const Tensor &weights, const Tensor &eo, Tensor &result,
                 ThreadPool &pool)
{
    switch (phase) {
      case Phase::Forward:
        return bestTimeSeconds(1, [&] {
            engine.forward(spec, in, weights, result, pool);
        });
      case Phase::BackwardData:
        return bestTimeSeconds(1, [&] {
            engine.backwardData(spec, eo, weights, result, pool);
        });
      case Phase::BackwardWeights:
        return bestTimeSeconds(1, [&] {
            engine.backwardWeights(spec, eo, in, result, pool);
        });
    }
    return 0;
}

/** @return a zero-filled (pre-faulted) output tensor for the phase. */
Tensor
phaseResult(Phase phase, const ConvSpec &spec, std::int64_t batch)
{
    switch (phase) {
      case Phase::Forward:
        return Tensor(Shape{batch, spec.nf, spec.outY(), spec.outX()});
      case Phase::BackwardData:
        return Tensor(Shape{batch, spec.nc, spec.ny, spec.nx});
      case Phase::BackwardWeights:
        return Tensor(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    }
    return Tensor(Shape{1});
}

struct PhaseResult
{
    std::string best_other;
    double best_other_seconds = 0;
    double direct_seconds = 0;
    double speedup() const
    {
        return direct_seconds > 0 ? best_other_seconds / direct_seconds
                                  : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli(
        "Blocked NCHWc layout: direct register-tiled engine vs the "
        "best existing engine per Table 1 layer and phase, conversion "
        "cost, and the tuner's pick (MEASURED)");
    addCommonFlags(cli);
    cli.addString("ids", "0,2,5",
                  "comma-separated Table 1 convolution ids");
    cli.addInt("reps", 3, "timed repetitions (best-of)");
    cli.addInt("train-batch", 4, "training minibatch size");
    cli.addInt("serving-batch", 1, "serving minibatch size");
    cli.addInt("max-spatial", 64,
               "cap nx/ny of huge Table 1 layers to keep the bench "
               "tractable (0 = full size)");
    cli.addInt("cores", 0, "worker pool size (0 = hardware threads)");
    cli.addString("json-file", "BENCH_layout.json",
                  "machine-readable output path ('' to skip)");
    cli.parse(argc, argv);

    int reps = static_cast<int>(cli.getInt("reps"));
    std::int64_t cap = cli.getInt("max-spatial");
    int cores = static_cast<int>(cli.getInt("cores"));
    if (cores <= 0)
        cores = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    ThreadPool pool(cores);

#if !(defined(__AVX2__) && defined(__FMA__))
    inform("note: no AVX2+FMA — direct runs its portable fallback");
#endif
    warmHost(pool);

    const Phase kPhases[] = {Phase::Forward, Phase::BackwardData,
                             Phase::BackwardWeights};
    auto engines = makeEngines();
    DirectEngine direct;

    TablePrinter table(
        "Direct NCHWc engine vs best existing per phase (" +
            std::to_string(cores) + " core(s), best of " +
            std::to_string(reps) + ", MEASURED)",
        {"ID", "spec", "batch", "phase", "best other", "other ms",
         "direct ms", "speedup", "direct GF/s"});

    std::ostringstream json;
    json << "{\n  \"bench\": \"layout\",\n  \"reps\": " << reps
         << ",\n  \"cores\": " << cores << ",\n  \"layers\": [";

    int wins_fp = 0, wins_bpd = 0, wins_bpw = 0;
    int tuner_fp = 0, tuner_bpd = 0, tuner_bpw = 0;
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

        json << (first_layer ? "" : ",") << "\n    {\"id\": " << id
             << ", \"spec\": \"" << spec.str() << "\", \"batches\": [";
        first_layer = false;

        bool first_batch = true;
        for (std::int64_t batch : {cli.getInt("train-batch"),
                                   cli.getInt("serving-batch")}) {
            Rng rng(5000 + id + batch);
            Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
            Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
            Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
            in.fillUniform(rng);
            w.fillUniform(rng, -0.5f, 0.5f);
            eo.fillUniform(rng);

            // Activation staging inside a direct FP call: pack the
            // input per (image, channel block), unpack the output per
            // (image, feature block), fanned out as the engine does.
            const std::int64_t cbn = blockCount(spec.nc);
            const std::int64_t kbn = blockCount(spec.nf);
            const std::int64_t oy = spec.outY(), ox = spec.outX();
            Tensor bin(Shape{batch, cbn, spec.ny, spec.nx * kChannelBlock});
            Tensor bout(Shape{batch, kbn, oy, ox * kChannelBlock});
            Tensor out_nchw(Shape{batch, spec.nf, oy, ox});
            double convert_seconds = bestTimeSeconds(reps, [&] {
                pool.parallelForDynamic(
                    batch * cbn,
                    [&](std::int64_t i, int) {
                        packImageBlockNchwc(
                            in.data() + (i / cbn) * spec.inputElems(),
                            bin.data() + (i / cbn) * (bin.size() / batch),
                            spec.nc, spec.ny, spec.nx, kChannelBlock,
                            i % cbn);
                    },
                    1);
                pool.parallelForDynamic(
                    batch * kbn,
                    [&](std::int64_t i, int) {
                        unpackImageBlockNchwc(
                            bout.data() + (i / kbn) * (bout.size() / batch),
                            out_nchw.data() +
                                (i / kbn) * spec.outputElems(),
                            spec.nf, oy, ox, kChannelBlock, i % kbn);
                    },
                    1);
            });

            json << (first_batch ? "" : ",")
                 << "\n      {\"batch\": " << batch
                 << ", \"convert_seconds\": " << convert_seconds
                 << ", \"phases\": {";
            first_batch = false;

            bool first_phase = true;
            for (Phase phase : kPhases) {
                PhaseResult r;
                // Round-robin the repetitions across engines so clock
                // or thermal drift over the measurement window hits
                // every candidate equally instead of whichever engine
                // happened to run during the slow stretch.
                std::vector<const ConvEngine *> cands;
                for (const auto &engine : engines)
                    if (engine->name() != "direct" &&
                        engine->supports(phase) &&
                        engine->appliesTo(spec, w.sparsity()))
                        cands.push_back(engine.get());
                Tensor result = phaseResult(phase, spec, batch);
                result.fill(0.0f);
                std::vector<double> times(cands.size(), 1e30);
                r.direct_seconds = 1e30;
                for (int rep = 0; rep < reps; ++rep) {
                    for (std::size_t e = 0; e < cands.size(); ++e)
                        times[e] = std::min(
                            times[e],
                            measurePhaseOnce(*cands[e], phase, spec, in,
                                             w, eo, result, pool));
                    r.direct_seconds = std::min(
                        r.direct_seconds,
                        measurePhaseOnce(direct, phase, spec, in, w, eo,
                                         result, pool));
                }
                r.best_other_seconds = 1e30;
                for (std::size_t e = 0; e < cands.size(); ++e)
                    if (times[e] < r.best_other_seconds) {
                        r.best_other_seconds = times[e];
                        r.best_other = cands[e]->name();
                    }
                bool win = r.direct_seconds < r.best_other_seconds;
                if (win) {
                    (phase == Phase::Forward
                         ? wins_fp
                         : phase == Phase::BackwardData ? wins_bpd
                                                        : wins_bpw)++;
                }
                double gflops =
                    static_cast<double>(spec.flops()) * batch /
                    r.direct_seconds / 1e9;
                table.addRow({
                    TablePrinter::fmt(static_cast<long long>(id)),
                    spec.str(),
                    TablePrinter::fmt(static_cast<long long>(batch)),
                    phaseName(phase),
                    r.best_other,
                    TablePrinter::fmt(r.best_other_seconds * 1e3, 2),
                    TablePrinter::fmt(r.direct_seconds * 1e3, 2),
                    TablePrinter::fmt(r.speedup(), 3),
                    TablePrinter::fmt(gflops, 1),
                });
                json << (first_phase ? "" : ", ") << "\""
                     << phaseKey(phase) << "\": {\"best_other\": \""
                     << r.best_other << "\", \"best_other_seconds\": "
                     << r.best_other_seconds
                     << ", \"direct_seconds\": " << r.direct_seconds
                     << ", \"direct_speedup\": " << r.speedup() << "}";
                first_phase = false;
            }

            // The scheduler's view: same shapes, conversion cost
            // amortized into the direct engine's staged measurement.
            TunerOptions topts;
            topts.reps = reps;
            topts.batch = batch;
            Tuner tuner(topts);
            LayerPlan plan = tuner.tune(spec, 0.0, pool);
            tuner_fp += plan.fp_engine == "direct";
            tuner_bpd += plan.bp_data_engine == "direct";
            tuner_bpw += plan.bp_weights_engine == "direct";
            json << "}, \"tuner\": {\"fp\": \"" << plan.fp_engine
                 << "\", \"bp_data\": \"" << plan.bp_data_engine
                 << "\", \"bp_weights\": \"" << plan.bp_weights_engine
                 << "\"}}";
        }
        json << "\n    ]}";
    }
    json << "\n  ],\n  \"direct_wins\": {\"fp\": " << wins_fp
         << ", \"bp_data\": " << wins_bpd
         << ", \"bp_weights\": " << wins_bpw
         << "},\n  \"tuner_picks_direct\": {\"fp\": " << tuner_fp
         << ", \"bp_data\": " << tuner_bpd
         << ", \"bp_weights\": " << tuner_bpw << "}\n}\n";

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
