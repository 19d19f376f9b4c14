/**
 * @file
 * Data-parallel training example: the Project Adam / DistBelief
 * setting the paper's introduction motivates — many multicore CPU
 * workers training one model synchronously.
 *
 * Runs real K-replica synchronous SGD (shards + gradient averaging)
 * on a synthetic MNIST-geometry task, then extrapolates the measured
 * per-bucket step profile to larger clusters with modelScaling():
 * blocking vs backprop-overlapped gradient exchange.
 *
 * Run: ./build/examples/distributed_training [--workers 4]
 */

#include <cstdio>

#include "core/net_config.hh"
#include "data/suites.hh"
#include "distrib/data_parallel.hh"
#include "util/cli.hh"

using namespace spg;

int
main(int argc, char **argv)
{
    CliParser cli("Synchronous data-parallel CNN training");
    cli.addInt("workers", 4, "model replicas");
    cli.addInt("epochs", 4, "training epochs");
    cli.addInt("global-batch", 32, "global minibatch");
    cli.parse(argc, argv);
    setLogLevel(LogLevel::Quiet);

    Dataset dataset = makeMnistLike(256);
    NetConfig config = parseNetConfig(mnistNetConfigText());

    DataParallelOptions options;
    options.workers = static_cast<int>(cli.getInt("workers"));
    options.epochs = static_cast<int>(cli.getInt("epochs"));
    options.global_batch = cli.getInt("global-batch");
    ThreadPool pool;

    std::printf("synchronous SGD: %d replicas, global batch %lld "
                "(shard %lld)\n\n",
                options.workers,
                static_cast<long long>(options.global_batch),
                static_cast<long long>(options.global_batch /
                                       options.workers));

    DataParallelTrainer trainer(config, 1, dataset, options);
    for (const auto &epoch : trainer.run(pool)) {
        std::printf("epoch %d  loss %.4f  acc %.3f  (%.2fs replica "
                    "compute)\n",
                    epoch.epoch, epoch.mean_loss, epoch.accuracy,
                    epoch.compute_seconds);
    }

    // Extrapolate the measured profile to larger clusters.
    const ExchangeOptions &ex = options.exchange;
    std::printf("\nmodeled scaling from the measured step (%s, "
                "%.2f GB/s links):\n%8s %16s %16s\n",
                allreduceAlgoName(ex.algo), ex.link.bandwidth_gbs,
                "workers", "blocking speedup", "overlap speedup");
    for (int k : {1, 4, 16, 64}) {
        ScalingPoint block = modelScaling(trainer.profile(), k, ex.algo,
                                          ex.link, false, false);
        ScalingPoint overlap = modelScaling(trainer.profile(), k, ex.algo,
                                            ex.link, true, false);
        std::printf("%8d %15.2fx %15.2fx\n", k, block.speedup,
                    overlap.speedup);
    }
    return 0;
}
