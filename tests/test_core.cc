/**
 * @file
 * Tests for the spg-CNN core: the network-description parser and the
 * engine tuner/scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "data/suites.hh"

namespace spg {
namespace {

TEST(NetConfig, ParsesFullDescription)
{
    NetConfig config = parseNetConfig(cifar10NetConfigText());
    EXPECT_EQ(config.name, "cifar10");
    EXPECT_EQ(config.channels, 3);
    EXPECT_EQ(config.height, 36);
    EXPECT_EQ(config.width, 36);
    EXPECT_EQ(config.classes, 10);
    ASSERT_EQ(config.layers.size(), 8u);
    EXPECT_EQ(config.layers[0].kind, LayerKind::Conv);
    EXPECT_EQ(config.layers[0].features, 64);
    EXPECT_EQ(config.layers[0].kernel, 5);
    EXPECT_EQ(config.layers[0].name, "conv0");
    EXPECT_EQ(config.layers[2].kind, LayerKind::MaxPool);
    EXPECT_EQ(config.layers[2].stride, 4);
    EXPECT_EQ(config.layers[6].kind, LayerKind::Fc);
    EXPECT_EQ(config.layers[6].outputs, 10);
    EXPECT_EQ(config.layers[7].kind, LayerKind::Softmax);
}

TEST(NetConfig, CommentsAndWhitespace)
{
    NetConfig config = parseNetConfig(R"(
        # a comment
        name: "tiny"   # trailing comment
        input { channels: 1 height: 8 width: 8 }
        layer { type: conv features: 2 kernel: 3 }
    )");
    EXPECT_EQ(config.name, "tiny");
    ASSERT_EQ(config.layers.size(), 1u);
}

TEST(NetConfig, RoundTripsThroughRender)
{
    NetConfig config = parseNetConfig(mnistNetConfigText());
    std::string rendered = renderNetConfig(config);
    NetConfig again = parseNetConfig(rendered);
    EXPECT_EQ(again.name, config.name);
    EXPECT_EQ(again.layers.size(), config.layers.size());
    for (std::size_t i = 0; i < config.layers.size(); ++i) {
        EXPECT_EQ(again.layers[i].kind, config.layers[i].kind) << i;
        EXPECT_EQ(again.layers[i].features, config.layers[i].features);
        EXPECT_EQ(again.layers[i].kernel, config.layers[i].kernel);
        EXPECT_EQ(again.layers[i].stride, config.layers[i].stride);
    }
}

TEST(NetConfigDeath, RejectsMalformedInput)
{
    EXPECT_DEATH(parseNetConfig("layer { type: conv }"),
                 "input block missing");
    EXPECT_DEATH(parseNetConfig("input { channels: 1 height: 4 width: 4 "
                                "} layer { type: warp }"),
                 "unknown layer type");
    EXPECT_DEATH(parseNetConfig("input { channels: x height: 4 width: 4 "
                                "} layer { type: relu }"),
                 "expects an integer");
    EXPECT_DEATH(parseNetConfig("bogus: 3"), "unexpected token");
    EXPECT_DEATH(parseNetConfig("input { channels: 1 height: 4 width: 4 "
                                "}"),
                 "no layers");
}

TEST(Tuner, PicksSupportedEnginesForEveryPhase)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.9, pool);

    EXPECT_FALSE(plan.fp_engine.empty());
    EXPECT_FALSE(plan.bp_data_engine.empty());
    EXPECT_FALSE(plan.bp_weights_engine.empty());
    EXPECT_NE(plan.fp_engine, "sparse");  // sparse is BP-only
    EXPECT_DOUBLE_EQ(plan.tuned_sparsity, 0.9);

    // FP candidates: parallel-gemm, gemm-in-parallel, direct, and
    // (3x3 stride 1) winograd; the CSR-weights engine sits out on an
    // unpruned layer.
    EXPECT_EQ(plan.timings.at(Phase::Forward).size(), 4u);
    // BP candidates: parallel-gemm, gemm-in-parallel, direct, and
    // sparse.
    EXPECT_EQ(plan.timings.at(Phase::BackwardData).size(), 4u);
    EXPECT_EQ(plan.timings.at(Phase::BackwardWeights).size(), 4u);
    for (const auto &[phase, timings] : plan.timings) {
        for (const auto &timing : timings)
            EXPECT_GT(timing.seconds, 0.0) << phaseName(phase);
    }
}

TEST(Tuner, ChoiceIsFastestMeasured)
{
    TunerOptions opts;
    opts.reps = 2;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(1);
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.5, pool);
    for (Phase phase :
         {Phase::Forward, Phase::BackwardData, Phase::BackwardWeights}) {
        const auto &timings = plan.timings.at(phase);
        double best = 1e30;
        std::string best_name;
        for (const auto &t : timings) {
            if (t.seconds < best) {
                best = t.seconds;
                best_name = t.engine;
            }
        }
        EXPECT_EQ(plan.enginesFor(phase), best_name) << phaseName(phase);
    }
}

TEST(Tuner, SparseBpWeightsPaysTheEncodeUnlessBpDataSharesIt)
{
    // Sparse BP-weights replays BP-data's CT-CSR plan only when BP-data
    // runs sparse too; otherwise training encodes on every BP-weights
    // call, and the tuner must charge that encode to the candidate.
    // Dense errors keep sparse BP-data from winning.
    TunerOptions opts;
    opts.reps = 2;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    for (double sparsity : {0.0, 0.95}) {
        LayerPlan plan = tuner.tune(spec, sparsity, pool);
        const auto &timings = plan.timings.at(Phase::BackwardWeights);
        auto it = std::find_if(timings.begin(), timings.end(),
                               [](const EngineTiming &t) {
                                   return t.engine == "sparse";
                               });
        ASSERT_NE(it, timings.end());
        if (plan.bp_data_engine == "sparse")
            EXPECT_EQ(it->encode_seconds, 0.0) << sparsity;
        else
            EXPECT_GT(it->encode_seconds, 0.0)
                << sparsity << ": BP-data deployed "
                << plan.bp_data_engine;
    }
}

TEST(Tuner, RetunePolicy)
{
    TunerOptions opts;
    opts.retune_interval = 2;
    opts.sparsity_drift = 0.1;
    Tuner tuner(opts);
    LayerPlan plan;
    plan.tuned_sparsity = 0.5;
    // Periodic re-tune on the interval.
    EXPECT_TRUE(tuner.shouldRetune(plan, 0.5, 2));
    EXPECT_FALSE(tuner.shouldRetune(plan, 0.5, 3));
    // Drift-triggered re-tune regardless of the epoch.
    EXPECT_TRUE(tuner.shouldRetune(plan, 0.75, 3));
    EXPECT_FALSE(tuner.shouldRetune(plan, 0.55, 1));
}

TEST(Tuner, RecordsScheduleTelemetry)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    LayerPlan plan = tuner.tune(spec, 0.5, pool);
    for (const auto &[phase, timings] : plan.timings) {
        for (const auto &t : timings) {
            EXPECT_GE(t.imbalance, 1.0)
                << phaseName(phase) << " " << t.engine;
            ASSERT_EQ(t.chunk_map.size(),
                      static_cast<std::size_t>(pool.threads()))
                << phaseName(phase) << " " << t.engine;
            std::int64_t items = 0;
            for (std::int64_t c : t.chunk_map)
                items += c;
            // The image-parallel engines dispatch one region per
            // batch, so their measurements must record a schedule;
            // parallel-gemm may run a tiny MM without the pool.
            if (t.engine.find("in-parallel") != std::string::npos ||
                t.engine.find("sparse") != std::string::npos) {
                EXPECT_GT(items, 0)
                    << phaseName(phase) << " " << t.engine;
            }
        }
    }
}

TEST(Tuner, RetuneBpCarriesFpForward)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(2);
    ConvSpec spec{12, 12, 3, 8, 3, 3, 1, 1};
    LayerPlan first = tuner.tune(spec, 0.0, pool);
    LayerPlan re = tuner.retuneBp(first, spec, 0.9, pool);

    // FP choice and measurements are carried forward, not re-measured.
    EXPECT_EQ(re.fp_engine, first.fp_engine);
    const auto &fp0 = first.timings.at(Phase::Forward);
    const auto &fp1 = re.timings.at(Phase::Forward);
    ASSERT_EQ(fp1.size(), fp0.size());
    for (std::size_t i = 0; i < fp0.size(); ++i) {
        EXPECT_EQ(fp1[i].engine, fp0[i].engine);
        EXPECT_DOUBLE_EQ(fp1[i].seconds, fp0[i].seconds);
    }

    // The BP phases ARE re-measured at the observed sparsity.
    EXPECT_DOUBLE_EQ(re.tuned_sparsity, 0.9);
    EXPECT_FALSE(re.bp_data_engine.empty());
    EXPECT_EQ(re.timings.at(Phase::BackwardData).size(),
              first.timings.at(Phase::BackwardData).size());
    EXPECT_EQ(re.timings.at(Phase::BackwardWeights).size(),
              first.timings.at(Phase::BackwardWeights).size());
}


TEST(Tuner, ExtensionsRespectGeometryGates)
{
    TunerOptions opts;
    opts.reps = 1;
    opts.batch = 2;
    Tuner tuner(opts);
    ThreadPool pool(1);

    auto fp_engines = [&](const ConvSpec &spec, double weight_sparsity) {
        LayerPlan plan = tuner.tune(spec, 0.0, pool, false,
                                    weight_sparsity);
        std::vector<std::string> names;
        for (const auto &t : plan.timings.at(Phase::Forward))
            names.push_back(t.engine);
        return names;
    };
    auto has = [](const std::vector<std::string> &names,
                  const char *name) {
        return std::find(names.begin(), names.end(), name) !=
               names.end();
    };

    // 3x3 stride-1: winograd is a candidate; unpruned, the CSR-weights
    // engine is not.
    auto on3x3 = fp_engines(ConvSpec{10, 10, 2, 3, 3, 3, 1, 1}, 0.0);
    EXPECT_TRUE(has(on3x3, "winograd"));
    EXPECT_FALSE(has(on3x3, "sparse-weights-direct"));

    // 5x5 pruned: winograd is skipped, the CSR-weights engine joins
    // without any option.
    auto on5x5 = fp_engines(ConvSpec{10, 10, 2, 3, 5, 5, 1, 1}, 0.8);
    EXPECT_FALSE(has(on5x5, "winograd"));
    EXPECT_TRUE(has(on5x5, "sparse-weights-direct"));
    EXPECT_EQ(on5x5.size(), 4u);
}

TEST(Suites, Table2GeometriesAreValid)
{
    EXPECT_EQ(table2Layers().size(), 12u);
    for (const auto &entry : table2Layers()) {
        EXPECT_TRUE(entry.spec.valid())
            << entry.benchmark << " L" << entry.layer;
    }
    EXPECT_EQ(table2Layers("MNIST").size(), 1u);
    EXPECT_EQ(table2Layers("ImageNet-22K").size(), 5u);
    EXPECT_DEATH(table2Layers("nope"), "unknown Table 2 benchmark");
}

TEST(Suites, Table1SpecsAreValid)
{
    EXPECT_EQ(table1Convolutions().size(), 6u);
    for (const auto &entry : table1Convolutions())
        EXPECT_TRUE(entry.spec.valid()) << entry.id;
}

} // namespace
} // namespace spg
