/**
 * @file
 * Reproduces paper Fig. 4e: goodput of the Sparse-Kernel (BP) as a
 * function of sparsity at 16 cores, including the costs of the
 * data-layout transformations and CT-CSR construction.
 *
 * Expected shape: consistently high goodput below ~90% sparsity, then
 * a drop as the bottleneck shifts from gradient computation to the
 * layout transforms.
 *
 * The MEASURED column runs the real SparseBpEngine single-core at 85%
 * sparsity on this host.
 */

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "data/suites.hh"
#include "sparse/sparse_plan.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

/** Measured single-core goodput (GFlops/s of non-zero work). */
double
measuredGoodput(const ConvSpec &spec, double sparsity, std::int64_t batch)
{
    ThreadPool pool(1);
    Rng rng(7);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    w.fillUniform(rng);
    in.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);
    double nnz_frac = 1.0 - eo.sparsity();

    SparseBpEngine engine;
    Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    double seconds = bestTimeSeconds(2, [&] {
        // Each rep is one training minibatch: the engine re-encodes in
        // BP-data (a fresh EO would miss) and reuses the plan in
        // BP-weights.
        SparsePlanCache::global().invalidate(eo.data());
        engine.backwardData(spec, eo, w, ei, pool);
        engine.backwardWeights(spec, eo, in, dw, pool);
    });
    // Non-zero flops of both BP phases.
    double useful = 2.0 * nnz_frac * batch *
                    static_cast<double>(spec.flops());
    return useful / seconds / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 4e (Sparse-Kernel BP goodput "
                  "vs sparsity)");
    addCommonFlags(cli);
    cli.addBool("measure", true,
                "run the real sparse engine on this host");
    cli.addInt("measure-flops-limit", 8,
               "skip measured column above this many GFlops per image "
               "batch");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");

    MachineModel machine = MachineModel::xeonE5_2650();
    const double sweep[] = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97};
    TablePrinter table(
        "Fig. 4e: Sparse-Kernel (BP) goodput in GFlops/s at 16 cores "
        "(batch " + std::to_string(batch) + ", transforms included) — "
        "SIMULATED; MEASURED = host 1-core @85%",
        {"ID", "s=0.5", "0.6", "0.7", "0.8", "0.9", "0.95", "0.97",
         "measured 1-core"});

    double flops_limit = cli.getInt("measure-flops-limit") * 1e9;
    for (const auto &entry : table1Convolutions()) {
        std::vector<std::string> row = {
            TablePrinter::fmt(static_cast<long long>(entry.id))};
        for (double sparsity : sweep) {
            double goodput = 0, seconds = 0;
            for (Phase phase :
                 {Phase::BackwardData, Phase::BackwardWeights}) {
                SimResult r = modelConvPhase(machine, entry.spec, phase,
                                             "sparse", batch, 16,
                                             sparsity);
                goodput += r.useful_flops;
                seconds += r.seconds;
            }
            row.push_back(TablePrinter::fmt(goodput / seconds / 1e9, 0));
        }
        std::int64_t measure_batch = 2;
        bool feasible = measure_batch *
                            static_cast<double>(entry.spec.flops()) <
                        flops_limit;
        row.push_back(cli.getBool("measure") && feasible
                          ? TablePrinter::fmt(
                                measuredGoodput(entry.spec, 0.85,
                                                measure_batch),
                                1)
                          : "-");
        table.addRow(row);
    }
    emit(cli, table);
    return 0;
}
