/**
 * @file
 * Reproduces paper Fig. 4f: speedup of the Sparse-Kernel (BP) over
 * GEMM-in-Parallel as a function of sparsity (x-axis 0, 0.5, 0.75,
 * 0.88, 0.94, 0.97, 0.99 as in the paper).
 *
 * Expected shape: below ~0.5 the dense schedule wins; from >= 0.75 the
 * sparse kernel consistently wins; at >= 0.90 it wins by 3x-32x.
 *
 * The MEASURED columns run both real engines single-core on this host
 * at 0 and 0.94 sparsity.
 */

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "data/suites.hh"
#include "sparse/sparse_plan.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

double
measuredSpeedup(const ConvSpec &spec, double sparsity, std::int64_t batch)
{
    ThreadPool pool(1);
    Rng rng(8);
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    w.fillUniform(rng);
    in.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);

    GemmInParallelEngine gemm;
    SparseBpEngine sparse;
    double t_gemm = bestTimeSeconds(2, [&] {
        gemm.backwardData(spec, eo, w, ei, pool);
        gemm.backwardWeights(spec, eo, in, dw, pool);
    });
    double t_sparse = bestTimeSeconds(2, [&] {
        // One training minibatch per rep: the sparse engine encodes
        // in BP-data and replays the plan in BP-weights.
        SparsePlanCache::global().invalidate(eo.data());
        sparse.backwardData(spec, eo, w, ei, pool);
        sparse.backwardWeights(spec, eo, in, dw, pool);
    });
    return t_gemm / t_sparse;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 4f (Sparse-Kernel speedup over "
                  "GEMM-in-Parallel vs sparsity)");
    addCommonFlags(cli);
    cli.addBool("measure", true, "run both real engines on this host");
    cli.addInt("measure-flops-limit", 8,
               "skip measured columns above this many GFlops per image "
               "batch");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");

    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter table(
        "Fig. 4f: Sparse-Kernel (BP) speedup over GEMM-in-Parallel at "
        "16 cores (batch " + std::to_string(batch) + ") — SIMULATED; "
        "MEASURED = host 1-core",
        {"ID", "s=0", "0.5", "0.75", "0.88", "0.94", "0.97", "0.99",
         "meas s=0", "meas s=0.94"});

    double flops_limit = cli.getInt("measure-flops-limit") * 1e9;
    for (const auto &entry : table1Convolutions()) {
        std::vector<std::string> row = {
            TablePrinter::fmt(static_cast<long long>(entry.id))};
        for (double sparsity : kSparsitySweep) {
            double t_gemm = 0, t_sparse = 0;
            for (Phase phase :
                 {Phase::BackwardData, Phase::BackwardWeights}) {
                t_gemm += modelConvPhase(machine, entry.spec, phase,
                                         "gemm-in-parallel", batch, 16,
                                         sparsity)
                              .seconds;
                t_sparse += modelConvPhase(machine, entry.spec, phase,
                                           "sparse", batch, 16, sparsity)
                                .seconds;
            }
            row.push_back(TablePrinter::fmt(t_gemm / t_sparse, 2));
        }
        std::int64_t measure_batch = 2;
        bool feasible = measure_batch *
                            static_cast<double>(entry.spec.flops()) <
                        flops_limit;
        if (cli.getBool("measure") && feasible) {
            row.push_back(TablePrinter::fmt(
                measuredSpeedup(entry.spec, 0.0, measure_batch),
                2));
            row.push_back(TablePrinter::fmt(
                measuredSpeedup(entry.spec, 0.94, measure_batch),
                2));
        } else {
            row.push_back("-");
            row.push_back("-");
        }
        table.addRow(row);
    }
    emit(cli, table);
    return 0;
}
