/**
 * @file
 * Tests for synchronous data-parallel training and its modeled
 * scaling.
 */

#include <gtest/gtest.h>

#include "core/net_config.hh"
#include "distrib/data_parallel.hh"
#include "nn/trainer.hh"

namespace spg {
namespace {

NetConfig
tinyConfig()
{
    return parseNetConfig(R"(
        name: "dp"
        input { channels: 1 height: 12 width: 12 classes: 4 }
        layer { type: conv features: 4 kernel: 3 }
        layer { type: relu }
        layer { type: fc outputs: 4 }
        layer { type: softmax }
    )");
}

TEST(DataParallel, EquivalentToSingleWorkerFullBatch)
{
    // The headline invariant: K workers on shards of B/K images with
    // parameter averaging must produce (numerically) the same model as
    // one worker on the full B-image batch.
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 64;
    spec.seed = 5;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    // Single-worker run: Trainer with batch == global batch.
    Network single(tinyConfig(), 77);
    TrainerOptions topts;
    topts.epochs = 2;
    topts.batch = 16;
    topts.learning_rate = 0.05f;
    topts.mode = TrainerOptions::Mode::Fixed;
    topts.log_epochs = false;
    topts.shuffle_seed = 9;
    Trainer trainer(single, ds, topts);
    trainer.run(pool);

    // 4-worker data-parallel run with identical shuffling.
    DataParallelOptions dopts;
    dopts.workers = 4;
    dopts.global_batch = 16;
    dopts.learning_rate = 0.05f;
    dopts.epochs = 2;
    dopts.shuffle_seed = 9;
    DataParallelTrainer dp(tinyConfig(), 77, ds, dopts);
    dp.run(pool);

    // Compare model outputs on a probe batch.
    Rng rng(6);
    Tensor probe(Shape{8, 1, 12, 12});
    probe.fillUniform(rng);
    Tensor p_single = single.forward(probe, pool).clone();
    const Tensor &p_dp = dp.replica(0).forward(probe, pool);
    EXPECT_LT(maxAbsDiff(p_single, p_dp), 5e-4f);
}

TEST(DataParallel, ReplicasStayIdentical)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 32;
    spec.seed = 7;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    DataParallelOptions opts;
    opts.workers = 3;
    opts.global_batch = 12;
    opts.epochs = 1;
    DataParallelTrainer dp(tinyConfig(), 3, ds, opts);
    dp.run(pool);

    Rng rng(8);
    Tensor probe(Shape{4, 1, 12, 12});
    probe.fillUniform(rng);
    Tensor p0 = dp.replica(0).forward(probe, pool).clone();
    for (int w = 1; w < 3; ++w) {
        const Tensor &pw = dp.replica(w).forward(probe, pool);
        EXPECT_EQ(maxAbsDiff(p0, pw), 0.0f) << "replica " << w;
    }
}

TEST(DataParallel, LearnsAndReports)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 96;
    spec.seed = 9;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(2);

    DataParallelOptions opts;
    opts.workers = 2;
    opts.global_batch = 16;
    opts.epochs = 3;
    DataParallelTrainer dp(tinyConfig(), 4, ds, opts);
    auto history = dp.run(pool);
    ASSERT_EQ(history.size(), 3u);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
    EXPECT_GT(history.back().accuracy, 0.5);
    for (const auto &e : history)
        EXPECT_GT(e.compute_seconds, 0.0);
}

TEST(DataParallel, LosslessCompressedExchangeMatchesDenseExactly)
{
    // threshold:0 ships every nonzero through CT-CSR and must
    // reproduce the dense exchange bit for bit: same data, same
    // shuffle, same seeds -> identical models after training.
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 64;
    spec.seed = 11;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    DataParallelOptions dense;
    dense.workers = 4;
    dense.global_batch = 16;
    dense.epochs = 2;
    DataParallelOptions lossless = dense;
    lossless.exchange.compress.mode =
        GradCompressOptions::Mode::Threshold;
    lossless.exchange.compress.threshold = 0;

    DataParallelTrainer a(tinyConfig(), 21, ds, dense);
    DataParallelTrainer b(tinyConfig(), 21, ds, lossless);
    a.run(pool);
    auto history = b.run(pool);

    Rng rng(12);
    Tensor probe(Shape{8, 1, 12, 12});
    probe.fillUniform(rng);
    Tensor pa = a.replica(0).forward(probe, pool).clone();
    const Tensor &pb = b.replica(0).forward(probe, pool);
    EXPECT_EQ(maxAbsDiff(pa, pb), 0.0f);

    // Lossless CT-CSR on mostly-dense gradients costs MORE wire than
    // raw fp32 (6B/nnz vs 4B/param) — the accounting must say so
    // honestly rather than flatter the sparse path.
    EXPECT_GT(history.back().wire_bytes, 0.0);
    EXPECT_GT(history.back().dense_bytes, 0.0);
}

TEST(DataParallel, LosslessCompressedMatchesSingleWorkerFullBatch)
{
    // Transitively with the test above this also pins the compressed
    // exchange to the mathematical full-batch equivalence.
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 48;
    spec.seed = 13;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    Network single(tinyConfig(), 31);
    TrainerOptions topts;
    topts.epochs = 1;
    topts.batch = 12;
    topts.learning_rate = 0.05f;
    topts.mode = TrainerOptions::Mode::Fixed;
    topts.log_epochs = false;
    topts.shuffle_seed = 4;
    Trainer trainer(single, ds, topts);
    trainer.run(pool);

    DataParallelOptions opts;
    opts.workers = 3;
    opts.global_batch = 12;
    opts.epochs = 1;
    opts.shuffle_seed = 4;
    opts.exchange.compress.mode =
        GradCompressOptions::Mode::Threshold;
    opts.exchange.compress.threshold = 0;
    DataParallelTrainer dp(tinyConfig(), 31, ds, opts);
    dp.run(pool);

    Rng rng(14);
    Tensor probe(Shape{6, 1, 12, 12});
    probe.fillUniform(rng);
    Tensor p_single = single.forward(probe, pool).clone();
    const Tensor &p_dp = dp.replica(0).forward(probe, pool);
    EXPECT_LT(maxAbsDiff(p_single, p_dp), 5e-4f);
}

TEST(DataParallel, EpochReportsExchangeEconomics)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 32;
    spec.seed = 17;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    DataParallelOptions opts;
    opts.workers = 2;
    opts.global_batch = 16;
    opts.epochs = 1;
    opts.exchange.compress.mode = GradCompressOptions::Mode::TopK;
    opts.exchange.compress.topk_frac = 0.1;
    DataParallelTrainer dp(tinyConfig(), 8, ds, opts);
    auto history = dp.run(pool);
    ASSERT_EQ(history.size(), 1u);
    const DataParallelEpoch &e = history.back();

    // Top-10% keeps ~6B per kept value vs 4B/param dense: the wire
    // must genuinely undercut dense here, and every modeled quantity
    // must be populated and sane.
    EXPECT_GT(e.wire_bytes, 0.0);
    EXPECT_LT(e.wire_bytes, e.dense_bytes);
    EXPECT_GT(e.compression_ratio, 1.0);
    EXPECT_GE(e.overlap_frac, 0.0);
    EXPECT_LE(e.overlap_frac, 1.0);
    EXPECT_GT(e.modeled_step_seconds, 0.0);
    EXPECT_GT(e.modeled_comm_seconds, 0.0);
    EXPECT_GE(e.modeled_step_seconds, e.modeled_exposed_seconds);

    // The measured profile behind the scaling model must carry one
    // bucket per parameter tensor (conv weights, fc weights, fc bias)
    // with ready times inside the measured compute window.
    const StepProfile &prof = dp.profile();
    ASSERT_EQ(prof.buckets.size(), 3u);
    EXPECT_GT(prof.compute_end_s, 0.0);
    for (const StepProfile::Bucket &b : prof.buckets) {
        EXPECT_GT(b.wire_bytes, 0.0);
        EXPECT_GT(b.dense_bytes, 0.0);
        EXPECT_GT(b.ready_s, 0.0);
        EXPECT_LE(b.ready_s, prof.compute_end_s);
    }
}

TEST(DataParallel, DeploysPerLayerEnginePlans)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.classes = 4;
    spec.count = 16;
    spec.seed = 19;
    Dataset ds = makeSynthetic(spec);
    ThreadPool pool(1);

    DataParallelOptions opts;
    opts.workers = 2;
    opts.global_batch = 8;
    opts.epochs = 1;
    EngineAssignment plan;
    plan.fp = "stencil";
    plan.bp_data = "gemm-in-parallel";
    plan.bp_weights = "gemm-in-parallel-packed";
    opts.conv_engines = {plan};  // broadcast to every conv layer
    DataParallelTrainer dp(tinyConfig(), 23, ds, opts);
    dp.run(pool);

    ASSERT_EQ(dp.deployedEngines().size(), 1u);  // one conv layer
    EXPECT_EQ(dp.deployedEngines()[0].fp, "stencil");
    EXPECT_EQ(dp.deployedEngines()[0].bp_weights,
              "gemm-in-parallel-packed");
}

TEST(DataParallel, ModelScalingPricesThePolicies)
{
    // A synthetic measured profile: 10 ms of backprop, two buckets.
    StepProfile prof;
    prof.compute_end_s = 10e-3;
    prof.measured_workers = 2;
    prof.measured_global_batch = 32;
    prof.buckets = {{"fc.g0", 2e-3, 0.5e6, 2e6},
                    {"conv.g0", 9e-3, 0.25e6, 1e6}};
    ClusterLink link;
    link.bandwidth_gbs = 0.125;
    link.latency_s = 50e-6;

    ScalingPoint k1 = modelScaling(prof, 1, AllreduceAlgo::Ring, link,
                                   true, false);
    EXPECT_DOUBLE_EQ(k1.speedup, 1.0);
    EXPECT_DOUBLE_EQ(k1.comm_s, 0.0);

    ScalingPoint dense_blk = modelScaling(
        prof, 8, AllreduceAlgo::Ring, link, false, false);
    ScalingPoint dense_ovl = modelScaling(
        prof, 8, AllreduceAlgo::Ring, link, true, false);
    ScalingPoint sparse_ovl = modelScaling(
        prof, 8, AllreduceAlgo::Ring, link, true, true);

    // Same dense payload: overlap can only help the step.
    EXPECT_DOUBLE_EQ(dense_ovl.comm_s, dense_blk.comm_s);
    EXPECT_LE(dense_ovl.step_s, dense_blk.step_s);
    EXPECT_GT(dense_ovl.overlap_frac, dense_blk.overlap_frac);
    // Fewer wire bytes: compression can only help too.
    EXPECT_LT(sparse_ovl.comm_s, dense_ovl.comm_s);
    EXPECT_LE(sparse_ovl.step_s, dense_ovl.step_s);
    EXPECT_GT(sparse_ovl.speedup, dense_blk.speedup);

    // Bigger modeled batch amortizes a fixed exchange: efficiency
    // must recover (the knee moves left), Adam-style.
    ScalingPoint small = modelScaling(prof, 8, AllreduceAlgo::Ring,
                                      link, false, false, 1.0);
    ScalingPoint big = modelScaling(prof, 8, AllreduceAlgo::Ring,
                                    link, false, false, 16.0);
    EXPECT_GT(big.efficiency(), small.efficiency());
}

TEST(DataParallelDeath, RejectsBadSharding)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.count = 16;
    Dataset ds = makeSynthetic(spec);
    DataParallelOptions opts;
    opts.workers = 3;
    opts.global_batch = 16;  // not divisible by 3
    EXPECT_DEATH(DataParallelTrainer(tinyConfig(), 1, ds, opts),
                 "not divisible");
}

TEST(DataParallelDeath, RejectsBatchLargerThanDataset)
{
    SyntheticSpec spec;
    spec.channels = 1;
    spec.height = 12;
    spec.width = 12;
    spec.count = 16;
    Dataset ds = makeSynthetic(spec);
    DataParallelOptions opts;
    opts.workers = 2;
    opts.global_batch = 32;  // > dataset.count(): zero steps per epoch
    EXPECT_DEATH(DataParallelTrainer(tinyConfig(), 1, ds, opts),
                 "global batch");
}

} // namespace
} // namespace spg
