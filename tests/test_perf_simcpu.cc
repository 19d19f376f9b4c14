/**
 * @file
 * Tests for the performance characterization (perf) and the multicore
 * performance model (simcpu): region classification, AIT-per-core
 * properties, roofline behaviour and the paper-shape invariants the
 * figures depend on.
 */

#include <gtest/gtest.h>

#include "data/suites.hh"
#include "perf/region.hh"
#include "perf/roofline.hh"
#include "simcpu/conv_model.hh"

namespace spg {
namespace {

TEST(Region, Table1RegionPairsMatchPaper)
{
    for (const auto &entry : table1Convolutions()) {
        EXPECT_EQ(regionPair(entry.spec), entry.paper_region)
            << "ID " << entry.id;
    }
}

TEST(Region, ThresholdBoundaries)
{
    RegionThresholds t;
    ConvSpec high = ConvSpec::square(32, 1024, 64, 3);
    ConvSpec mid = ConvSpec::square(32, 512, 64, 3);
    ConvSpec low = ConvSpec::square(32, 127, 64, 3);
    EXPECT_EQ(classifyRegion(high, 0.0, t), Region::R0);
    EXPECT_EQ(classifyRegion(high, 0.9, t), Region::R1);
    EXPECT_EQ(classifyRegion(mid, 0.0, t), Region::R2);
    EXPECT_EQ(classifyRegion(mid, 0.9, t), Region::R3);
    EXPECT_EQ(classifyRegion(low, 0.0, t), Region::R4);
    EXPECT_EQ(classifyRegion(low, 0.9, t), Region::R5);
    // The sparse threshold is inclusive.
    EXPECT_EQ(classifyRegion(mid, t.sparse_threshold, t), Region::R3);
}

TEST(Region, RecommendationsFollowPaperRules)
{
    ConvSpec small = ConvSpec::square(28, 20, 1, 5);
    ConvSpec mid = ConvSpec::square(64, 250, 120, 5);
    ConvSpec big = ConvSpec::square(64, 1024, 512, 2);

    EXPECT_EQ(recommendTechniques(small, 0.0).fp, "stencil");
    EXPECT_EQ(recommendTechniques(mid, 0.0).fp, "gemm-in-parallel");
    EXPECT_EQ(recommendTechniques(big, 0.0).fp, "parallel-gemm");
    EXPECT_EQ(recommendTechniques(mid, 0.85).bp, "sparse");
    EXPECT_EQ(recommendTechniques(mid, 0.5).bp, "gemm-in-parallel");
    EXPECT_EQ(recommendTechniques(big, 0.5).bp, "parallel-gemm");
}

TEST(Roofline, AitPerCoreDropsForParallelGemmOnly)
{
    // The §3.2 core claim: partitioning one MM reduces per-core AIT;
    // running whole MMs per core does not.
    std::int64_t m = 256, n = 4096, k = 1152;
    double single = gemmInParallelAitPerCore(m, n, k);
    double prev = parallelGemmAitPerCore(m, n, k, 1);
    EXPECT_NEAR(prev, single, 1e-9);
    for (int p : {2, 4, 8, 16}) {
        double ait = parallelGemmAitPerCore(m, n, k, p);
        EXPECT_LT(ait, prev) << p << " cores";
        prev = ait;
        EXPECT_NEAR(gemmInParallelAitPerCore(m, n, k), single, 1e-12);
    }
}

TEST(Roofline, SquareMmMatchesPaperExample)
{
    // Paper §3.2: square n x n MM has AIT 2n/3 on one core and n/2 on
    // two cores (row partition).
    std::int64_t n = 600;
    EXPECT_NEAR(parallelGemmAitPerCore(n, n, n, 1), 2.0 * n / 3, 1e-6);
    double two_core =
        gemmFlopsPerCore(n, n, n, 2) /
        gemmElementsPerCore(n, n, n, 2, GemmPartition::Rows);
    EXPECT_NEAR(two_core, n / 2.0, 1e-6);
}

TEST(Roofline, AttainablePerformance)
{
    // Memory-bound region scales with AIT; compute-bound clips.
    EXPECT_NEAR(rooflineGflops(1.0, 40.0, 8.0), 2.0, 1e-9);
    EXPECT_NEAR(rooflineGflops(10.0, 40.0, 8.0), 20.0, 1e-9);
    EXPECT_NEAR(rooflineGflops(1000.0, 40.0, 8.0), 40.0, 1e-9);
}

TEST(Machine, EffectivePeakAndBandwidthSharing)
{
    MachineModel m = MachineModel::xeonE5_2650();
    EXPECT_EQ(m.physical_cores, 16);
    EXPECT_NEAR(m.effectivePeakPerCore(1), m.peak_gflops_per_core, 1e-9);
    EXPECT_NEAR(m.effectivePeakPerCore(16), m.peak_gflops_per_core, 1e-9);
    // SMT: 32 logical cores share the 16 physical pipelines.
    EXPECT_NEAR(m.effectivePeakPerCore(32),
                m.peak_gflops_per_core / 2, 1e-9);
    // One core cannot draw the whole socket bandwidth.
    EXPECT_LE(m.bandwidthPerCore(1), m.per_core_bw_gbs + 1e-9);
    EXPECT_NEAR(m.bandwidthPerCore(16), m.dram_bw_gbs / 16, 1e-9);
}

TEST(Machine, SkinnyGemmEfficiencyShrinksWithDimensions)
{
    MachineModel m = MachineModel::xeonE5_2650();
    double big = m.gemmEfficiency(1024, 4096, 1024);
    double skinny_m = m.gemmEfficiency(8, 4096, 1024);
    double skinny_k = m.gemmEfficiency(1024, 4096, 16);
    EXPECT_GT(big, 0.6);
    EXPECT_LT(skinny_m, big / 2);
    EXPECT_LT(skinny_k, big / 2);
}

TEST(Simulate, ComputeAndMemoryBounds)
{
    MachineModel m = MachineModel::xeonE5_2650();
    m.fork_join_s = 0;
    // Pure compute task on one core.
    SimTask compute;
    compute.flops = m.peak_gflops_per_core * 1e9;  // one second of work
    compute.efficiency = 1.0;
    SimResult r = simulate(m, {{compute}});
    EXPECT_NEAR(r.seconds, 1.0, 1e-9);
    EXPECT_NEAR(r.gflopsPerCore(), m.peak_gflops_per_core, 1e-6);

    // Pure memory task: bandwidth-limited.
    SimTask memory;
    memory.bytes = m.bandwidthPerCore(1) * 1e9;
    r = simulate(m, {{memory}});
    EXPECT_NEAR(r.seconds, 1.0, 1e-9);
}

TEST(Simulate, SlowestCoreDominates)
{
    MachineModel m = MachineModel::xeonE5_2650();
    m.fork_join_s = 0;
    SimTask small;
    small.flops = 1e9;
    small.efficiency = 1.0;
    SimTask big = small;
    big.flops = 4e9;
    SimResult r = simulate(m, {{small}, {big}, {small}});
    SimResult r_big = simulate(m, {{big}});
    // Adding fast cores does not beat the slowest stream, but the
    // parallel run is no slower than the big task alone at the same
    // bandwidth share... the big stream bounds the wall clock.
    EXPECT_GE(r.seconds, r_big.seconds - 1e-12);
    EXPECT_EQ(r.cores, 3);
}

TEST(Simulate, UniformDistributesRoundRobin)
{
    MachineModel m = MachineModel::xeonE5_2650();
    m.fork_join_s = 0;
    SimTask t;
    t.flops = 1e9;
    t.efficiency = 1.0;
    // 5 tasks on 4 cores: slowest core runs 2 -> 2x single-task time.
    SimResult one = simulateUniform(m, t, 1, 1);
    SimResult five = simulateUniform(m, t, 5, 4);
    EXPECT_NEAR(five.seconds, 2 * one.seconds, 1e-9);
    EXPECT_EQ(five.cores, 4);
    // Goodput defaults to total flops.
    EXPECT_NEAR(five.useful_flops, 5e9, 1);
}

TEST(Simulate, ScheduledChargesMeasuredChunkMap)
{
    MachineModel m = MachineModel::xeonE5_2650();
    m.fork_join_s = 0;
    SimTask t;
    t.flops = 1e9;
    t.efficiency = 1.0;
    // Measured 48/16 skew over 2 workers, scaled to 64 tasks: the
    // loaded core runs 48 -> 1.5x the even split's 32.
    SimResult even = simulateUniform(m, t, 64, 2);
    SimResult skew = simulateScheduled(m, t, 64, {48, 16});
    EXPECT_NEAR(skew.seconds / even.seconds, 1.5, 1e-9);
    EXPECT_EQ(skew.cores, 2);
    EXPECT_NEAR(skew.total_flops, even.total_flops, 1);

    // Idle workers still occupy streams: a 3-entry map with one zero
    // keeps 3 cores' bandwidth sharing but loads only two.
    SimResult lopsided = simulateScheduled(m, t, 64, {32, 32, 0});
    EXPECT_EQ(lopsided.cores, 3);

    // Largest-remainder rounding conserves the task count: 7 tasks
    // over weights {2, 1, 1} must sum to exactly 7 (4 + 1.75 + 1.75
    // floors to 3+1+1, the two 0.75 remainders get the leftovers).
    SimResult seven = simulateScheduled(m, t, 7, {2, 1, 1});
    EXPECT_NEAR(seven.total_flops, 7e9, 1);

    // An all-zero map (nothing measured) falls back to the even split.
    SimResult fallback = simulateScheduled(m, t, 64, {0, 0});
    EXPECT_NEAR(fallback.seconds, even.seconds, 1e-12);
}

TEST(ConvModel, PhaseModelConsumesMeasuredSchedule)
{
    // The tuner's measured chunk map must reach the image-parallel
    // engine models: a maximally skewed schedule (everything on one
    // worker) has to cost ~cores x the even split, while Parallel-GEMM
    // (which partitions one MM, not images) ignores the map.
    MachineModel m = MachineModel::xeonE5_2650();
    m.fork_join_s = 0;
    ConvSpec spec = ConvSpec::square(32, 250, 120, 5);
    std::int64_t batch = 16;
    int cores = 4;
    std::vector<std::int64_t> all_on_one = {16, 0, 0, 0};

    const std::pair<const char *, Phase> image_parallel[] = {
        {"gemm-in-parallel", Phase::Forward},
        {"stencil", Phase::Forward},
        {"sparse", Phase::BackwardData}};
    for (auto [engine, phase] : image_parallel) {
        double sparsity = phase == Phase::Forward ? 0.0 : 0.5;
        SimResult even = modelConvPhase(m, spec, phase, engine, batch,
                                        cores, sparsity);
        SimResult skew = modelConvPhase(m, spec, phase, engine, batch,
                                        cores, sparsity, &all_on_one);
        EXPECT_GT(skew.seconds, 2.0 * even.seconds) << engine;
    }

    SimResult pg_even = modelConvPhase(m, spec, Phase::Forward,
                                       "parallel-gemm", batch, cores, 0.0);
    SimResult pg_skew =
        modelConvPhase(m, spec, Phase::Forward, "parallel-gemm", batch,
                       cores, 0.0, &all_on_one);
    EXPECT_NEAR(pg_skew.seconds, pg_even.seconds, 1e-12);
}

TEST(ConvModel, ParallelGemmPerCorePerfDegradesWithCores)
{
    // The Fig. 3a shape: per-core GFlops at 16 cores is well below
    // 1-core for the low/moderate-AIT Table 1 convolutions.
    MachineModel m = MachineModel::xeonE5_2650();
    for (int id : {0, 2, 3}) {
        const auto &entry = table1Convolutions()[id];
        PhaseMm mm = phaseMm(entry.spec, Phase::Forward);
        double one =
            modelParallelGemmMm(m, mm.m, mm.n, mm.k, 1).gflopsPerCore();
        double sixteen =
            modelParallelGemmMm(m, mm.m, mm.n, mm.k, 16).gflopsPerCore();
        EXPECT_LT(sixteen, 0.6 * one) << "ID " << entry.id;
    }
    // ID 1 (region 0) keeps scaling much better.
    const auto &big = table1Convolutions()[1];
    PhaseMm mm = phaseMm(big.spec, Phase::Forward);
    double one = modelParallelGemmMm(m, mm.m, mm.n, mm.k, 1)
                     .gflopsPerCore();
    double sixteen = modelParallelGemmMm(m, mm.m, mm.n, mm.k, 16)
                         .gflopsPerCore();
    EXPECT_GT(sixteen, 0.7 * one);
}

TEST(ConvModel, GemmInParallelPerCorePerfStaysFlat)
{
    // The Fig. 4a shape: <15% drop from 1 to 16 cores.
    MachineModel m = MachineModel::xeonE5_2650();
    for (const auto &entry : table1Convolutions()) {
        PhaseMm mm = phaseMm(entry.spec, Phase::Forward);
        double one = modelGemmInParallelMm(m, mm.m, mm.n, mm.k, 64, 1)
                         .gflopsPerCore();
        double sixteen =
            modelGemmInParallelMm(m, mm.m, mm.n, mm.k, 64, 16)
                .gflopsPerCore();
        EXPECT_GT(sixteen, 0.85 * one) << "ID " << entry.id;
    }
}

TEST(ConvModel, StencilWinsOnlyForFewFeatures)
{
    // The Fig. 4d shape: stencil beats GEMM-in-Parallel for < 128
    // output features and loses for large feature counts.
    MachineModel m = MachineModel::xeonE5_2650();
    auto speedup = [&](const ConvSpec &spec) {
        double gemm = modelConvPhase(m, spec, Phase::Forward,
                                     "gemm-in-parallel", 64, 16)
                          .seconds;
        double stencil =
            modelConvPhase(m, spec, Phase::Forward, "stencil", 64, 16)
                .seconds;
        return gemm / stencil;
    };
    EXPECT_GT(speedup(table1Convolutions()[0].spec), 1.0);  // Nf=32
    EXPECT_GT(speedup(table1Convolutions()[5].spec), 1.0);  // Nf=64
    EXPECT_LT(speedup(table1Convolutions()[1].spec), 1.0);  // Nf=1024
    EXPECT_LT(speedup(table1Convolutions()[4].spec), 1.0);  // Nf=512
}

TEST(ConvModel, SparseCrossoverNearPaperThreshold)
{
    // The Fig. 4f shape: the sparse BP kernel loses when dense and
    // wins by >= 3x at 90% sparsity.
    MachineModel m = MachineModel::xeonE5_2650();
    for (const auto &entry : table1Convolutions()) {
        auto ratio = [&](double sparsity) {
            double gemm = 0, sparse = 0;
            for (Phase phase :
                 {Phase::BackwardData, Phase::BackwardWeights}) {
                gemm += modelConvPhase(m, entry.spec, phase,
                                       "gemm-in-parallel", 64, 16,
                                       sparsity)
                            .seconds;
                sparse += modelConvPhase(m, entry.spec, phase, "sparse",
                                         64, 16, sparsity)
                              .seconds;
            }
            return gemm / sparse;
        };
        EXPECT_LT(ratio(0.0), 1.5) << "ID " << entry.id;
        EXPECT_GT(ratio(0.9), 3.0) << "ID " << entry.id;
        // Monotone improvement with sparsity until transform-bound.
        EXPECT_GT(ratio(0.9), ratio(0.5)) << "ID " << entry.id;
    }
}

TEST(ConvModel, EncodeOnceSparseChargesEncodeTrafficOnce)
{
    // The sparse engine pays the CT-CSR build in BP-data — fingerprint
    // plus the fused builder's two source reads (3|EO|) and the plan
    // write (2 nnz) — while BP-weights replays that plan: one
    // fingerprint read of EO plus the plan read. Both phases share the
    // 2 nnz plan term, so per image the EO-dependent traffic of
    // BP-weights is exactly 2|EO| below BP-data's once the phases'
    // own operand terms (3|W| + 4|EI| vs 3|I| + 4|W|) are removed.
    MachineModel m = MachineModel::xeonE5_2650();
    const std::int64_t batch = 64;
    for (const auto &entry : table1Convolutions()) {
        const ConvSpec &s = entry.spec;
        for (double sparsity : {0.5, 0.9, 0.99}) {
            double data =
                modelConvPhase(m, s, Phase::BackwardData, "sparse",
                               batch, 16, sparsity)
                    .total_bytes;
            double weights =
                modelConvPhase(m, s, Phase::BackwardWeights, "sparse",
                               batch, 16, sparsity)
                    .total_bytes;
            double own_data = 3.0 * s.weightElems() + 4.0 * s.inputElems();
            double own_weights =
                3.0 * s.inputElems() + 4.0 * s.weightElems();
            double eo_gap = (data / (4.0 * batch) - own_data) -
                            (weights / (4.0 * batch) - own_weights);
            EXPECT_NEAR(eo_gap, 2.0 * s.outputElems(),
                        1e-6 * s.outputElems())
                << "ID " << entry.id << " s=" << sparsity;
        }
    }
}

TEST(ConvModel, GoodputDropsAtExtremeSparsity)
{
    // The Fig. 4e shape: goodput holds to ~90% sparsity, then the
    // layout/CT-CSR transforms dominate and goodput falls.
    MachineModel m = MachineModel::xeonE5_2650();
    const auto &entry = table1Convolutions()[2];
    double at_half = modelConvPhase(m, entry.spec, Phase::BackwardData,
                                    "sparse", 64, 16, 0.5)
                         .goodput();
    double at_99 = modelConvPhase(m, entry.spec, Phase::BackwardData,
                                  "sparse", 64, 16, 0.99)
                       .goodput();
    EXPECT_LT(at_99, 0.7 * at_half);
}

TEST(ConvModel, LayerStepComposesPhases)
{
    MachineModel m = MachineModel::xeonE5_2650();
    ConvSpec spec = table2Layers("CIFAR-10")[0].spec;
    double fp = modelConvPhase(m, spec, Phase::Forward,
                               "gemm-in-parallel", 32, 8)
                    .seconds;
    double step = modelLayerStepSeconds(m, spec, "gemm-in-parallel",
                                        "gemm-in-parallel", 32, 8, 0.0);
    EXPECT_GT(step, fp / 32);  // per-image step includes BP
}


TEST(ConvModel, Fig8ShapeInvariants)
{
    // The Fig. 8 structure: every Table 2 layer gains from
    // GEMM-in-Parallel over Parallel-GEMM at 16 cores; the stencil
    // adds further speedup exactly on the small-feature CIFAR/MNIST
    // layers; the sparse BP kernel wins everywhere at 85% sparsity.
    MachineModel m = MachineModel::xeonE5_2650();
    for (const auto &entry : table2Layers()) {
        double fp_base = modelConvPhase(m, entry.spec, Phase::Forward,
                                        "parallel-gemm", 64, 16)
                             .seconds;
        double fp_gip = modelConvPhase(m, entry.spec, Phase::Forward,
                                       "gemm-in-parallel", 64, 16)
                            .seconds;
        EXPECT_GT(fp_base / fp_gip, 1.5)
            << entry.benchmark << " L" << entry.layer;

        double bp_base = 0, bp_sparse = 0;
        for (Phase phase :
             {Phase::BackwardData, Phase::BackwardWeights}) {
            bp_base += modelConvPhase(m, entry.spec, phase,
                                      "parallel-gemm", 64, 16, 0.85)
                           .seconds;
            bp_sparse += modelConvPhase(m, entry.spec, phase, "sparse",
                                        64, 16, 0.85)
                             .seconds;
        }
        EXPECT_GT(bp_base / bp_sparse, 2.0)
            << entry.benchmark << " L" << entry.layer;
    }

    // Stencil wins over GEMM-in-Parallel on the CIFAR and MNIST
    // layers (the paper's green bars).
    for (const char *bench : {"CIFAR-10", "MNIST"}) {
        for (const auto &entry : table2Layers(bench)) {
            double gip = modelConvPhase(m, entry.spec, Phase::Forward,
                                        "gemm-in-parallel", 64, 16)
                             .seconds;
            double stencil = modelConvPhase(m, entry.spec,
                                            Phase::Forward, "stencil",
                                            64, 16)
                                 .seconds;
            EXPECT_GT(gip / stencil, 1.2)
                << bench << " L" << entry.layer;
        }
    }
}

TEST(ConvModel, HostCalibratedModelIsSelfConsistent)
{
    MachineModel host = MachineModel::hostCalibrated(29.0);
    EXPECT_EQ(host.physical_cores, 1);
    // A large square GEMM should be predicted near the calibrated rate.
    SimResult r = modelGemmInParallelMm(host, 1024, 1024, 1024, 1, 1);
    EXPECT_NEAR(r.gflopsPerCore(), 29.0, 29.0 * 0.15);
}

} // namespace
} // namespace spg
