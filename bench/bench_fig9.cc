/**
 * @file
 * Reproduces paper Fig. 9: end-to-end CIFAR-10 training throughput
 * (images per second) as a function of the core count, for the five
 * configurations the paper compares:
 *
 *   1. Parallel-GEMM (CAFFE)   — baseline, OpenBLAS-class GEMM
 *   2. Parallel-GEMM (ADAM)    — baseline, the paper's ADAM platform
 *   3. GEMM-in-Parallel (FP and BP)
 *   4. GEMM-in-Parallel (FP) + Sparse-Kernel (BP)
 *   5. Stencil-Kernel (FP) + Sparse-Kernel (BP)
 *
 * SIMULATED rows compose the per-layer conv models with a streaming
 * model of the non-convolution layers (ReLU/pool/FC/softmax). The two
 * baselines differ by their modeled GEMM library efficiency (the
 * paper measured CAFFE ~1.5x faster than ADAM at low core counts).
 *
 * The MEASURED rows train the real network single-core on this host:
 * the Parallel-GEMM baseline, and direct FP + sparse BP, where direct
 * is the deployable engine of the Stencil-Kernel's region.
 */

#include "bench/bench_common.hh"
#include "data/suites.hh"
#include "nn/trainer.hh"

using namespace spg;

namespace {

/** One of the five Fig. 9 configurations. */
struct Config
{
    const char *label;
    const char *fp;
    const char *bp;
    double gemm_efficiency;  ///< models the platform's BLAS quality
    /**
     * Serial per-image framework time (seconds): in the CAFFE/ADAM
     * baselines the data layer, im2col and layer glue run on one
     * thread — only the GEMM itself is parallel — which is what
     * saturates the paper's baseline curves at ~2 cores. The spg-CNN
     * schedules parallelize per-image work across the minibatch and
     * keep only a small residual serial component.
     */
    double serial_per_image_s;
};

/** Per-image non-conv traffic: fwd+bwd passes over the activations. */
double
nonConvBytesPerImage(const NetConfig &config)
{
    Network net(config, 1);
    double elems = 0;
    for (std::size_t i = 0; i < net.layerCount(); ++i)
        elems += static_cast<double>(net.layer(i).outputGeometry()
                                         .elems());
    // ~6 streaming passes (relu fwd/bwd, pool fwd/bwd, copies).
    return 6.0 * 4.0 * elems;
}

/** Simulated images/second of one configuration at `cores`. */
double
imagesPerSecond(MachineModel machine, const Config &config,
                const std::vector<Table2Entry> &layers,
                double non_conv_bytes, std::int64_t batch, int cores,
                double sparsity)
{
    machine.gemm_efficiency = config.gemm_efficiency;
    double per_image = config.serial_per_image_s;
    for (const auto &layer : layers) {
        per_image += modelLayerStepSeconds(machine, layer.spec,
                                           config.fp, config.bp, batch,
                                           cores, sparsity);
    }
    // Non-conv layers stream their activations; images distribute
    // across cores like GEMM-in-Parallel.
    SimTask task;
    task.bytes = non_conv_bytes;
    SimResult r = simulateUniform(machine, task, batch, cores);
    per_image += r.seconds / batch;
    return 1.0 / per_image;
}

/** Real single-core training throughput on this host. */
double
measuredImagesPerSecond(const char *fp, const char *bp)
{
    setLogLevel(LogLevel::Quiet);
    Dataset ds = makeCifarLike(128, 31);
    Network net(parseNetConfig(cifar10NetConfigText()), 32);
    for (ConvLayer *conv : net.convLayers())
        conv->setEngines(EngineAssignment{fp, bp, bp});
    TrainerOptions opts;
    opts.epochs = 2;
    opts.batch = 16;
    opts.mode = TrainerOptions::Mode::Fixed;
    opts.log_epochs = false;
    ThreadPool pool(1);
    Trainer trainer(net, ds, opts);
    auto history = trainer.run(pool);
    return history.back().images_per_second;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("Reproduce paper Fig. 9 (end-to-end CIFAR-10 "
                  "training throughput)");
    addCommonFlags(cli);
    cli.addDouble("sparsity", 0.85, "BP error sparsity during training");
    cli.addBool("measure", true,
                "also train the real network single-core on this host");
    cli.parse(argc, argv);
    std::int64_t batch = cli.getInt("batch");
    double sparsity = cli.getDouble("sparsity");

    const Config configs[] = {
        {"Parallel-GEMM (CAFFE)", "parallel-gemm", "parallel-gemm",
         0.80, 3.0e-3},
        {"Parallel-GEMM (ADAM)", "parallel-gemm", "parallel-gemm", 0.55,
         4.6e-3},
        {"GEMM-in-Parallel (FP and BP)", "gemm-in-parallel",
         "gemm-in-parallel", 0.80, 0.3e-3},
        {"GEMM-in-Parallel (FP) + Sparse (BP)", "gemm-in-parallel",
         "sparse", 0.80, 0.3e-3},
        // The sparse BP engine encodes CT-CSR once per minibatch and
        // shares the plan between its two phases.
        {"Stencil (FP) + Sparse (BP)", "stencil", "sparse", 0.80,
         0.3e-3},
    };

    MachineModel machine = MachineModel::xeonE5_2650();
    NetConfig net_config = parseNetConfig(cifar10NetConfigText());
    auto layers = table2Layers("CIFAR-10");
    double non_conv = nonConvBytesPerImage(net_config);

    TablePrinter table(
        "Fig. 9: CIFAR-10 training images/second vs cores (batch " +
            std::to_string(batch) + ", BP sparsity " +
            TablePrinter::fmt(sparsity, 2) + ") — SIMULATED",
        {"configuration", "1", "2", "4", "8", "16", "32"});

    double base_peak = 0, best_peak = 0;
    for (const auto &config : configs) {
        std::vector<std::string> row = {config.label};
        double peak = 0;
        for (int cores : {1, 2, 4, 8, 16, 32}) {
            double ips = imagesPerSecond(machine, config, layers,
                                         non_conv, batch, cores,
                                         sparsity);
            peak = std::max(peak, ips);
            row.push_back(TablePrinter::fmt(ips, 0));
        }
        if (std::string(config.label) == "Parallel-GEMM (CAFFE)")
            base_peak = peak;
        best_peak = std::max(best_peak, peak);
        table.addRow(row);
    }
    emit(cli, table);

    inform("net speedup of best configuration over Parallel-GEMM "
           "(CAFFE) peak: %.2fx (paper: 8.36x)",
           best_peak / base_peak);

    if (cli.getBool("measure")) {
        TablePrinter measured(
            "Fig. 9 validation: MEASURED single-core training on this "
            "host (real network, real engines)",
            {"configuration", "images/s"});
        measured.addRow({"parallel-gemm FP+BP",
                         TablePrinter::fmt(measuredImagesPerSecond(
                                               "parallel-gemm",
                                               "parallel-gemm"),
                                           0)});
        measured.addRow({"direct FP + sparse BP",
                         TablePrinter::fmt(measuredImagesPerSecond(
                                               "direct", "sparse"),
                                           0)});
        measured.print();
    }
    return 0;
}
