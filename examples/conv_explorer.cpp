/**
 * @file
 * Convolution explorer: characterize ANY convolution the way the
 * paper's §3 does and measure every engine on it.
 *
 * Give it a geometry and it reports:
 *   - the AIT model (intrinsic, unfolded, the r ratio of §3.1),
 *   - the Fig. 1 region and the paper-rule engine recommendation,
 *   - measured single-core time/GFlops of every applicable engine on
 *     this machine, per phase, at your chosen error sparsity,
 *   - the simulated 16-core behaviour on the paper's machine.
 *
 * Example:
 *   ./build/examples/conv_explorer --n=36 --nf=64 --nc=3 --k=5 \
 *       --sparsity=0.85
 */

#include <cstdio>

#include "conv/engines.hh"
#include "data/synthetic.hh"
#include "perf/region.hh"
#include "simcpu/conv_model.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace spg;

int
main(int argc, char **argv)
{
    CliParser cli("Characterize and measure one convolution");
    cli.addInt("n", 36, "input spatial size (square)");
    cli.addInt("nf", 64, "output features");
    cli.addInt("nc", 3, "input channels");
    cli.addInt("k", 5, "kernel size (square)");
    cli.addInt("stride", 1, "stride");
    cli.addInt("batch", 8, "minibatch for measurements");
    cli.addDouble("sparsity", 0.85, "BP error sparsity");
    cli.parse(argc, argv);

    ConvSpec spec = ConvSpec::square(cli.getInt("n"), cli.getInt("nf"),
                                     cli.getInt("nc"), cli.getInt("k"),
                                     cli.getInt("stride"));
    spec.validate();
    double sparsity = cli.getDouble("sparsity");
    std::int64_t batch = cli.getInt("batch");

    std::printf("convolution %s: out %lldx%lld, %lld MFlops/image\n",
                spec.str().c_str(),
                static_cast<long long>(spec.outY()),
                static_cast<long long>(spec.outX()),
                static_cast<long long>(spec.flops() / 1000000));
    std::printf("AIT: intrinsic %.0f, after unfolding %.0f "
                "(r = %.2f)\n",
                spec.intrinsicAit(), spec.unfoldAit(),
                spec.unfoldRatio());
    TechniqueChoice rule = recommendTechniques(spec, sparsity);
    std::printf("Fig. 1 region %s at sparsity %.2f; paper rule: "
                "FP=%s BP=%s\n",
                regionName(classifyRegion(spec, sparsity)).c_str(),
                sparsity, rule.fp.c_str(), rule.bp.c_str());

    // Measure every engine on this machine.
    ThreadPool pool;
    Rng rng(1);
    Tensor in(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor w(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    Tensor out(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    Tensor eo(Shape{batch, spec.nf, spec.outY(), spec.outX()});
    Tensor ei(Shape{batch, spec.nc, spec.ny, spec.nx});
    Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    eo.fillUniform(rng);
    eo.sparsify(rng, sparsity);

    TablePrinter table(
        "measured on this machine (batch " + std::to_string(batch) +
            ", " + std::to_string(pool.threads()) + " thread(s))",
        {"engine", "FP ms", "FP GF/s", "BP-data ms", "BP-w ms",
         "BP goodput GF/s"});

    double flops = batch * static_cast<double>(spec.flops());
    for (const auto &engine : makeEngines()) {
        if (!engine->appliesTo(spec, w.sparsity()))
            continue;
        std::vector<std::string> row = {engine->name()};
        if (engine->supports(Phase::Forward)) {
            double t = bestTimeSeconds(3, [&] {
                engine->forward(spec, in, w, out, pool);
            });
            row.push_back(TablePrinter::fmt(t * 1e3, 2));
            row.push_back(TablePrinter::fmt(flops / t / 1e9, 1));
        } else {
            row.insert(row.end(), {"-", "-"});
        }
        if (engine->supports(Phase::BackwardData)) {
            double td = bestTimeSeconds(3, [&] {
                engine->backwardData(spec, eo, w, ei, pool);
            });
            double tw = bestTimeSeconds(3, [&] {
                engine->backwardWeights(spec, eo, in, dw, pool);
            });
            row.push_back(TablePrinter::fmt(td * 1e3, 2));
            row.push_back(TablePrinter::fmt(tw * 1e3, 2));
            double useful = 2.0 * (1.0 - sparsity) * flops;
            row.push_back(
                TablePrinter::fmt(useful / (td + tw) / 1e9, 1));
        } else {
            row.insert(row.end(), {"-", "-", "-"});
        }
        table.addRow(row);
    }
    table.print();

    // Simulated paper machine at 1 and 16 cores.
    MachineModel machine = MachineModel::xeonE5_2650();
    TablePrinter sim(
        "simulated Xeon E5-2650 (paper machine), FP",
        {"engine", "1-core GF/s/core", "16-core GF/s/core"});
    for (const char *engine :
         {"parallel-gemm", "gemm-in-parallel", "stencil"}) {
        SimResult one = modelConvPhase(machine, spec, Phase::Forward,
                                       engine, batch, 1);
        SimResult sixteen = modelConvPhase(machine, spec, Phase::Forward,
                                           engine, batch, 16);
        sim.addRow({engine, TablePrinter::fmt(one.gflopsPerCore(), 1),
                    TablePrinter::fmt(sixteen.gflopsPerCore(), 1)});
    }
    sim.print();
    return 0;
}
