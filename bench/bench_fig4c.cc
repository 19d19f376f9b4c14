/**
 * @file
 * Reproduces paper Fig. 4c: scalability and absolute performance of
 * the Stencil-Kernel (FP), including its data-layout transformation
 * time. Because the stencil schedule distributes whole images across
 * cores, its per-core performance is nearly flat in the core count.
 *
 * The SIMULATED columns price the paper's Stencil-Kernel with simcpu's
 * "stencil" model. The MEASURED column runs the deployable direct
 * convolution, DirectEngine, single-core on this host (small
 * convolutions only; the big Table 1 geometries are GEMM territory and
 * are skipped to keep the bench fast).
 */

#include "bench/bench_common.hh"
#include "conv/engines.hh"
#include "data/suites.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace spg;

namespace {

/** Measured single-core direct FP GFlops on this host. */
double
measuredDirectGflops(const ConvSpec &spec, std::int64_t batch)
{
    ThreadPool pool(1);
    Rng rng(5);
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    in.fillUniform(rng);
    w.fillUniform(rng);
    DirectEngine engine;
    double seconds = bestTimeSeconds(2, [&] {
        engine.forward(spec, in, w, out, pool);
    });
    return batch * static_cast<double>(spec.flops()) / seconds / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 4c (Stencil-Kernel FP "
                  "scalability)");
    addCommonFlags(cli);
    cli.addBool("measure", true,
                "run the real direct engine on this host");
    cli.addInt("measure-flops-limit", 8,
               "skip measured column above this many GFlops per image "
               "batch");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");

    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter table(
        "Fig. 4c: Stencil-Kernel (FP) GFlops per core (batch " +
            std::to_string(batch) +
            ", incl. layout transform) — SIMULATED; MEASURED = "
            "direct engine, host 1-core",
        {"ID", "Nf", "1", "2", "4", "8", "16", "measured direct 1-core"});

    double flops_limit = cli.getInt("measure-flops-limit") * 1e9;
    for (const auto &entry : table1Convolutions()) {
        std::vector<std::string> row = {
            TablePrinter::fmt(static_cast<long long>(entry.id)),
            TablePrinter::fmt(static_cast<long long>(entry.spec.nf))};
        for (int cores : kCoreSweep) {
            SimResult r = modelConvPhase(machine, entry.spec,
                                         Phase::Forward, "stencil",
                                         batch, cores);
            row.push_back(TablePrinter::fmt(r.gflopsPerCore(), 1));
        }
        std::int64_t measure_batch = 4;
        bool feasible = measure_batch *
                            static_cast<double>(entry.spec.flops()) <
                        flops_limit;
        row.push_back(cli.getBool("measure") && feasible
                          ? TablePrinter::fmt(measuredDirectGflops(
                                                  entry.spec,
                                                  measure_batch),
                                              1)
                          : "-");
        table.addRow(row);
    }
    emit(cli, table);
    return 0;
}
