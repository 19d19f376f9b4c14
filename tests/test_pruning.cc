/**
 * @file
 * Tests for the magnitude-pruning schedule (nn/pruning.hh) and its
 * integration with the layers' prune masks.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv_layer.hh"
#include "nn/pruning.hh"
#include "util/random.hh"

namespace spg {
namespace {

TEST(PruningSchedule, ParsesTargetStartAndRamp)
{
    PruneOptions a = parsePruneSchedule("0.9");
    EXPECT_DOUBLE_EQ(a.target_sparsity, 0.9);
    EXPECT_EQ(a.start_epoch, 1);
    EXPECT_EQ(a.ramp_epochs, 4);

    PruneOptions b = parsePruneSchedule("0.75@2");
    EXPECT_DOUBLE_EQ(b.target_sparsity, 0.75);
    EXPECT_EQ(b.start_epoch, 2);

    PruneOptions c = parsePruneSchedule("0.5@0:6");
    EXPECT_DOUBLE_EQ(c.target_sparsity, 0.5);
    EXPECT_EQ(c.start_epoch, 0);
    EXPECT_EQ(c.ramp_epochs, 6);
    EXPECT_TRUE(c.enabled());
    EXPECT_FALSE(PruneOptions{}.enabled());
}

TEST(PruningScheduleDeath, RejectsMalformedSchedules)
{
    EXPECT_DEATH(parsePruneSchedule("bogus"), "prune");
    EXPECT_DEATH(parsePruneSchedule("1.5"), "prune");
    EXPECT_DEATH(parsePruneSchedule("-0.1"), "prune");
    EXPECT_DEATH(parsePruneSchedule("0.9@x"), "prune");
}

TEST(PruningSchedule, RampIsMonotoneAndSaturates)
{
    PruneOptions opts;
    opts.target_sparsity = 0.9;
    opts.start_epoch = 2;
    opts.ramp_epochs = 5;

    EXPECT_DOUBLE_EQ(pruneRampFraction(opts, 0), 0.0);
    EXPECT_DOUBLE_EQ(pruneRampFraction(opts, 1), 0.0);
    double prev = 0.0;
    for (int epoch = 2; epoch < 12; ++epoch) {
        double f = pruneRampFraction(opts, epoch);
        EXPECT_GE(f, prev) << "epoch " << epoch;
        EXPECT_LE(f, 1.0);
        prev = f;
    }
    // Saturated at the end of the ramp and beyond.
    EXPECT_DOUBLE_EQ(pruneRampFraction(opts, 6), 1.0);
    EXPECT_DOUBLE_EQ(pruneRampFraction(opts, 100), 1.0);
    // Cubic shape: first step prunes more than half the target.
    EXPECT_GT(pruneRampFraction(opts, 2), 0.4);
}

TEST(PruningSchedule, FirstLayerTargetIsScaledDown)
{
    PruneOptions opts;
    opts.target_sparsity = 0.8;
    opts.first_layer_scale = 0.5;
    EXPECT_DOUBLE_EQ(pruneLayerTarget(opts, 0, 3), 0.4);
    EXPECT_DOUBLE_EQ(pruneLayerTarget(opts, 1, 3), 0.8);
    EXPECT_DOUBLE_EQ(pruneLayerTarget(opts, 2, 3), 0.8);
    // A single prunable layer is NOT the sensitive first of many.
    EXPECT_DOUBLE_EQ(pruneLayerTarget(opts, 0, 1), 0.8);
}

TEST(MagnitudePrune, HitsExactCountAndDropsSmallest)
{
    Tensor w(Shape{10, 10});
    float *d = w.data();
    for (int i = 0; i < 100; ++i)
        d[i] = (i % 2 ? -1.0f : 1.0f) * (i + 1);  // |w| = 1..100

    std::vector<std::uint8_t> mask;
    double achieved = magnitudePrune(w, 0.3, mask);
    EXPECT_DOUBLE_EQ(achieved, 0.3);
    EXPECT_DOUBLE_EQ(w.sparsity(), 0.3);
    ASSERT_EQ(mask.size(), 100u);
    // Exactly the 30 smallest magnitudes (|w| in 1..30) are dropped.
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(mask[i], i < 30 ? 0 : 1) << "at " << i;
        EXPECT_EQ(d[i] == 0.0f, i < 30) << "at " << i;
    }
}

TEST(MagnitudePrune, RepruningIsMonotone)
{
    Rng rng(5);
    Tensor w(Shape{8, 4, 3, 3});
    w.fillUniform(rng, -1.0f, 1.0f);

    std::vector<std::uint8_t> mask;
    magnitudePrune(w, 0.4, mask);
    std::vector<std::uint8_t> at40 = mask;
    double achieved = magnitudePrune(w, 0.7, mask);
    // Every position pruned at 40% stays pruned at 70%: exact zeros
    // sort first in the magnitude order.
    for (std::size_t i = 0; i < mask.size(); ++i) {
        if (at40[i] == 0)
            EXPECT_EQ(mask[i], 0) << "at " << i;
    }
    EXPECT_NEAR(achieved, 0.7, 0.5 / static_cast<double>(w.size()));
    EXPECT_DOUBLE_EQ(w.sparsity(), achieved);
}

TEST(MagnitudePrune, ApplyMaskRezeroesAfterUpdate)
{
    Rng rng(6);
    Tensor w(Shape{4, 4});
    w.fillUniform(rng, -1.0f, 1.0f);
    std::vector<std::uint8_t> mask;
    magnitudePrune(w, 0.5, mask);

    // Simulate an SGD step perturbing everything, then re-mask.
    for (std::int64_t i = 0; i < w.size(); ++i)
        w.data()[i] += 0.25f;
    applyPruneMask(w, mask);
    for (std::int64_t i = 0; i < w.size(); ++i) {
        if (!mask[static_cast<std::size_t>(i)])
            EXPECT_EQ(w.data()[i], 0.0f) << "at " << i;
        else
            EXPECT_NE(w.data()[i], 0.0f) << "at " << i;
    }
    // An empty mask (never pruned) is a no-op.
    std::vector<std::uint8_t> none;
    Tensor v(Shape{2, 2});
    v.fill(3.0f);
    applyPruneMask(v, none);
    EXPECT_EQ(v.sparsity(), 0.0);
}

TEST(PruningConvLayer, PruneSurvivesSgdUpdates)
{
    // Layer-level contract the sparse FP engines rely on: once pruned,
    // positions stay exactly zero across weight updates until the next
    // prune step moves the mask.
    Rng rng(7);
    ConvSpec spec{10, 10, 2, 4, 3, 3, 1, 1};
    ConvLayer layer("conv_t", spec, rng);
    EXPECT_TRUE(layer.prunable());
    EXPECT_DOUBLE_EQ(layer.weightSparsity(), 0.0);

    layer.pruneToSparsity(0.6);
    double pruned = layer.weightSparsity();
    EXPECT_NEAR(pruned, 0.6, 0.5 / static_cast<double>(
                                       layer.paramCount()));
    std::vector<std::uint8_t> mask = *layer.pruneMask();

    // Run a forward/backward to populate gradients, then update.
    ThreadPool pool(1);
    Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
    in.fillUniform(rng);
    Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
    layer.forward(in, out, pool);
    Tensor eo = out.clone();
    Tensor ei(Shape{2, spec.nc, spec.ny, spec.nx});
    layer.backward(in, out, eo, ei, pool);
    layer.update(0.05f, pool);

    EXPECT_GE(layer.weightSparsity(), pruned);
    const float *w = layer.weights().data();
    for (std::size_t i = 0; i < mask.size(); ++i) {
        if (!mask[i])
            EXPECT_EQ(w[i], 0.0f) << "at " << i;
    }
}

} // namespace
} // namespace spg

