/**
 * @file
 * Fused-epilogue and activation-arena tests.
 *
 * The fusion contract is bit-for-bit: a conv/fc layer with a fused
 * ReLU must produce exactly the activations and gradients of the
 * unfused layer followed by a standalone ReLU. These tests check that
 * contract for every engine (FP epilogue and BP mask), for the fused
 * network as a whole, and for the degenerate case of fully-clipped
 * pre-activations (empty sparse plans). The arena tests pin the
 * planner's promise: the packed high-water mark stays strictly below
 * the sum of the individual buffers.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "conv/engines.hh"
#include "core/net_config.hh"
#include "nn/network.hh"
#include "nn/simple_layers.hh"
#include "sparse/sparse_plan.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"

using namespace spg;

namespace {

void
expectBitEqual(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.data()[i], b.data()[i])
            << what << " diverged at flat index " << i;
    }
}

/** Weight sparsity passed to appliesTo(): any pruned layer, so every
 *  engine that can run a geometry joins the sweep. */
constexpr double kPruned = 1.0;

/** Geometries the engine sweep runs: generic, strided, odd, 3x3 (so
 *  winograd participates), and a 1x1-output corner. */
std::vector<ConvSpec>
fusionSpecs()
{
    return {
        ConvSpec{10, 10, 3, 4, 3, 3, 1, 1},
        ConvSpec{11, 11, 2, 3, 5, 5, 2, 2},  // strided + odd geometry
        ConvSpec{9, 9, 1, 2, 4, 4, 1, 1},
        ConvSpec{5, 5, 2, 3, 5, 5, 1, 1},    // single output pixel
    };
}

constexpr std::int64_t kBatch = 3;

struct FusedData
{
    Tensor in, weights, pre, eo;
    std::vector<std::uint8_t> mask;  ///< relu activity of `pre`
};

/** Build inputs plus the reference pre-activation (via the reference
 *  engine) and its ReLU mask. `centered` pulls the weights negative so
 *  roughly half the outputs clip; `all_negative` clips everything. */
FusedData
makeData(const ConvSpec &spec, ThreadPool &pool, bool all_negative)
{
    FusedData d;
    Rng rng(91 + spec.nx + spec.nf);
    d.in = Tensor(Shape{kBatch, spec.nc, spec.ny, spec.nx});
    d.weights = Tensor(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
    d.pre = Tensor(Shape{kBatch, spec.nf, spec.outY(), spec.outX()});
    d.eo = Tensor(Shape{kBatch, spec.nf, spec.outY(), spec.outX()});
    d.in.fillUniform(rng, all_negative ? 0.1f : -1.0f, 1.0f);
    if (all_negative)
        d.weights.fillUniform(rng, -0.6f, -0.1f);
    else
        d.weights.fillUniform(rng, -0.5f, 0.5f);
    d.eo.fillUniform(rng);
    ReferenceEngine ref;
    ref.forward(spec, d.in, d.weights, d.pre, pool);
    d.mask.resize(static_cast<std::size_t>(d.pre.size()));
    for (std::int64_t i = 0; i < d.pre.size(); ++i)
        d.mask[i] = d.pre.data()[i] > 0.0f;
    return d;
}

} // namespace

// ---------------------------------------------------------------------------
// FP epilogue: every engine, fused relu == unfused conv + standalone relu.

TEST(FusedForward, BitForBitAcrossAllEngines)
{
    ThreadPool pool(3);
    for (const ConvSpec &spec : fusionSpecs()) {
        for (const auto &engine : makeEngines()) {
            if (!engine->supports(Phase::Forward) ||
                !engine->appliesTo(spec, kPruned)) {
                continue;
            }
            FusedData d = makeData(spec, pool, false);
            Shape oshape{kBatch, spec.nf, spec.outY(), spec.outX()};

            Tensor plain(oshape);
            engine->forward(spec, d.in, d.weights, plain, pool);
            Tensor expected(oshape);
            for (std::int64_t i = 0; i < plain.size(); ++i)
                expected.data()[i] =
                    plain.data()[i] > 0.0f ? plain.data()[i] : 0.0f;

            Tensor fused(oshape);
            engine->forward(spec, d.in, d.weights, fused, pool,
                            Epilogue{Epilogue::Kind::Relu, nullptr});
            expectBitEqual(fused, expected,
                           engine->name() + " relu " + spec.str());

            Tensor fused_masked(oshape);
            std::vector<std::uint8_t> mask(
                static_cast<std::size_t>(plain.size()), 0xAB);
            engine->forward(spec, d.in, d.weights, fused_masked, pool,
                            Epilogue{Epilogue::Kind::ReluMask,
                                     mask.data()});
            expectBitEqual(fused_masked, expected,
                           engine->name() + " relu-mask " + spec.str());
            for (std::int64_t i = 0; i < plain.size(); ++i) {
                ASSERT_EQ(mask[static_cast<std::size_t>(i)],
                          plain.data()[i] > 0.0f ? 1 : 0)
                    << engine->name() << " mask bit " << i << " "
                    << spec.str();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BP mask: every engine, gradients from (eo, mask) == gradients from a
// pre-masked error tensor.

TEST(FusedBackward, BitForBitAcrossAllEngines)
{
    ThreadPool pool(3);
    SparsePlanCache &plans = SparsePlanCache::global();
    for (const ConvSpec &spec : fusionSpecs()) {
        for (const auto &engine : makeEngines()) {
            if (!engine->appliesTo(spec, kPruned))
                continue;
            FusedData d = makeData(spec, pool, false);
            Tensor eo_masked(
                Shape{kBatch, spec.nf, spec.outY(), spec.outX()});
            for (std::int64_t i = 0; i < d.eo.size(); ++i)
                eo_masked.data()[i] =
                    d.mask[static_cast<std::size_t>(i)] ? d.eo.data()[i]
                                                        : 0.0f;
            BpMask mask{d.mask.data()};

            if (engine->supports(Phase::BackwardData)) {
                Tensor ei_a(Shape{kBatch, spec.nc, spec.ny, spec.nx});
                Tensor ei_b(Shape{kBatch, spec.nc, spec.ny, spec.nx});
                engine->backwardData(spec, eo_masked, d.weights, ei_a,
                                     pool);
                engine->backwardData(spec, d.eo, d.weights, ei_b, pool,
                                     mask);
                expectBitEqual(ei_b, ei_a,
                               engine->name() + " bp-data " + spec.str());
            }
            if (engine->supports(Phase::BackwardWeights)) {
                Tensor dw_a(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
                Tensor dw_b(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
                engine->backwardWeights(spec, eo_masked, d.in, dw_a,
                                        pool);
                engine->backwardWeights(spec, d.eo, d.in, dw_b, pool,
                                        mask);
                expectBitEqual(dw_b, dw_a,
                               engine->name() + " bp-weights " +
                                   spec.str());
            }
            plans.invalidate(d.eo.data());
            plans.invalidate(eo_masked.data());
        }
    }
}

// ---------------------------------------------------------------------------
// Fully-clipped pre-activations: the mask zeroes every error, the
// sparse engines must survive empty plans and all gradients vanish.

TEST(FusedBackward, AllNegativePreActivationsGiveZeroGradients)
{
    ThreadPool pool(2);
    ConvSpec spec{8, 8, 2, 3, 3, 3, 1, 1};
    FusedData d = makeData(spec, pool, true);
    for (std::size_t i = 0; i < d.mask.size(); ++i)
        ASSERT_EQ(d.mask[i], 0) << "pre-activation " << i
                                << " unexpectedly positive";
    BpMask mask{d.mask.data()};

    for (const auto &engine : makeEngines()) {
        if (engine->supports(Phase::BackwardData)) {
            Tensor ei(Shape{kBatch, spec.nc, spec.ny, spec.nx});
            ei.fill(7.0f);
            engine->backwardData(spec, d.eo, d.weights, ei, pool, mask);
            for (std::int64_t i = 0; i < ei.size(); ++i)
                ASSERT_EQ(ei.data()[i], 0.0f)
                    << engine->name() << " ei[" << i << "]";
        }
        if (engine->supports(Phase::BackwardWeights)) {
            Tensor dw(Shape{spec.nf, spec.nc, spec.fy, spec.fx});
            dw.fill(7.0f);
            engine->backwardWeights(spec, d.eo, d.in, dw, pool, mask);
            for (std::int64_t i = 0; i < dw.size(); ++i)
                ASSERT_EQ(dw.data()[i], 0.0f)
                    << engine->name() << " dw[" << i << "]";
        }
    }
    SparsePlanCache::global().invalidate(d.eo.data());
}

// ---------------------------------------------------------------------------
// Network level: the fused network trains bit-for-bit like the unfused
// one, with fewer layers and standalone passes.

namespace {

NetConfig
fusionNetConfig(bool fuse)
{
    NetConfig cfg;
    cfg.name = "fusion-test";
    cfg.channels = 2;
    cfg.height = 12;
    cfg.width = 12;
    cfg.classes = 5;
    cfg.fuse_epilogues = fuse;
    cfg.layers = {
        LayerConfig{LayerKind::Conv, "", 4, 3, 1, 0},
        LayerConfig{LayerKind::Relu, "", 0, 0, 1, 0},
        LayerConfig{LayerKind::MaxPool, "", 0, 2, 2, 0},
        LayerConfig{LayerKind::Fc, "", 0, 0, 1, 16},
        LayerConfig{LayerKind::Relu, "", 0, 0, 1, 0},
        LayerConfig{LayerKind::Fc, "", 0, 0, 1, 5},
        LayerConfig{LayerKind::Softmax, "", 0, 0, 1, 0},
    };
    return cfg;
}

void
fillStepData(Rng &rng, Tensor &images, std::vector<int> &labels,
             std::int64_t classes)
{
    images.fillUniform(rng, -1.0f, 1.0f);
    labels.resize(static_cast<std::size_t>(images.shape()[0]));
    for (auto &label : labels)
        label = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(classes)));
}

} // namespace

TEST(FusedNetwork, TrainsBitForBitLikeUnfused)
{
    ThreadPool pool(2);
    Network fused(fusionNetConfig(true), 42);
    Network plain(fusionNetConfig(false), 42);

    EXPECT_EQ(fused.fusedPairs(), 2);
    EXPECT_EQ(plain.fusedPairs(), 0);
    // The two standalone ReLU layers disappear from the fused stack.
    EXPECT_EQ(fused.layerCount() + 2, plain.layerCount());

    const std::int64_t batch = 4;
    Rng data_rng(7);
    Tensor images(Shape{batch, 2, 12, 12});
    std::vector<int> labels;
    for (int step = 0; step < 4; ++step) {
        fillStepData(data_rng, images, labels, 5);
        StepStats a = fused.trainStep(images, labels, 0.05f, pool);
        StepStats b = plain.trainStep(images, labels, 0.05f, pool);
        ASSERT_EQ(a.loss, b.loss) << "step " << step;
        ASSERT_EQ(a.accuracy, b.accuracy) << "step " << step;
    }

    // After several SGD steps every parameter must still be identical.
    for (std::size_t i = 0, j = 0;
         i < fused.layerCount() && j < plain.layerCount();) {
        auto fp = fused.layer(i).params();
        auto pp = plain.layer(j).params();
        if (fused.layer(i).paramCount() == 0) {
            ++i;
            continue;
        }
        if (plain.layer(j).paramCount() == 0) {
            ++j;
            continue;
        }
        ASSERT_EQ(fp.size(), pp.size());
        for (std::size_t k = 0; k < fp.size(); ++k)
            expectBitEqual(*fp[k], *pp[k],
                           "params of fused layer " + std::to_string(i));
        ++i;
        ++j;
    }
}

TEST(FusedNetwork, ForwardMatchesUnfusedBitForBit)
{
    ThreadPool pool(2);
    Network fused(fusionNetConfig(true), 11);
    Network plain(fusionNetConfig(false), 11);
    Rng data_rng(3);
    Tensor images(Shape{3, 2, 12, 12});
    std::vector<int> labels;
    fillStepData(data_rng, images, labels, 5);
    const Tensor &pa = fused.forward(images, pool);
    const Tensor &pb = plain.forward(images, pool);
    expectBitEqual(pa, pb, "class probabilities");
}

// ---------------------------------------------------------------------------
// Arena planner: packed high-water mark strictly below the sum of the
// individual activation/error buffers.

TEST(ActivationArena, HighWaterMarkBelowUnplannedSum)
{
    ThreadPool pool(2);
    Network net(fusionNetConfig(true), 42);
    Rng data_rng(5);
    Tensor images(Shape{4, 2, 12, 12});
    std::vector<int> labels;
    fillStepData(data_rng, images, labels, 5);
    net.trainStep(images, labels, 0.05f, pool);

    EXPECT_GT(net.arenaBytes(), 0);
    EXPECT_LT(net.arenaBytes(), net.arenaUnplannedBytes());

    // Replanning for a different batch keeps the invariant.
    Tensor eval(Shape{9, 2, 12, 12});
    std::vector<int> eval_labels;
    fillStepData(data_rng, eval, eval_labels, 5);
    net.evalAccuracy(eval, eval_labels, pool);
    EXPECT_LT(net.arenaBytes(), net.arenaUnplannedBytes());
}

// ---------------------------------------------------------------------------
// ReLU / pool backward edge cases.

TEST(ReluEdgeCases, AllNegativeInputGivesFullySparseErrors)
{
    ThreadPool pool(2);
    Geometry geom{2, 4, 4};
    ReluLayer relu(geom);
    Tensor in(Shape{2, 2, 4, 4});
    Tensor out(Shape{2, 2, 4, 4});
    Tensor eo(Shape{2, 2, 4, 4});
    Tensor ei(Shape{2, 2, 4, 4});
    Rng rng(17);
    in.fillUniform(rng, -2.0f, -0.01f);
    eo.fillUniform(rng);
    relu.forward(in, out, pool);
    relu.backward(in, out, eo, ei, pool);
    EXPECT_EQ(ei.sparsity(), 1.0);
    EXPECT_EQ(out.maxAbs(), 0.0f);
}

TEST(ReluEdgeCases, OutputGatingMatchesInputGating)
{
    // The arena in-place path relies on backward gating on the OUTPUT;
    // check it against the classic input-gated form, including -0.0.
    ThreadPool pool(1);
    Geometry geom{1, 2, 3};
    ReluLayer relu(geom);
    Tensor in(Shape{1, 1, 2, 3});
    Tensor out(Shape{1, 1, 2, 3});
    Tensor eo(Shape{1, 1, 2, 3});
    Tensor ei(Shape{1, 1, 2, 3});
    const float values[] = {-0.0f, 0.0f, 1.5f, -2.0f, 1e-30f, 3.0f};
    for (int i = 0; i < 6; ++i)
        in.data()[i] = values[i];
    eo.fill(2.0f);
    relu.forward(in, out, pool);
    relu.backward(in, out, eo, ei, pool);
    for (int i = 0; i < 6; ++i) {
        float expected = values[i] > 0.0f ? 2.0f : 0.0f;
        EXPECT_EQ(ei.data()[i], expected) << "element " << i;
    }
}

TEST(PoolEdgeCases, StrideLargerThanKernel)
{
    // Stride 3 with kernel 2 skips input columns/rows entirely; the
    // skipped positions must receive zero gradient.
    ThreadPool pool(2);
    Geometry geom{1, 7, 7};
    PoolLayer max_pool(geom, 2, 3, PoolLayer::Mode::Max);
    Geometry og = max_pool.outputGeometry();
    EXPECT_EQ(og.h, 2);
    EXPECT_EQ(og.w, 2);

    Tensor in(Shape{1, 1, 7, 7});
    Tensor out(Shape{1, 1, og.h, og.w});
    Tensor eo(Shape{1, 1, og.h, og.w});
    Tensor ei(Shape{1, 1, 7, 7});
    Rng rng(23);
    in.fillUniform(rng);
    eo.fillUniform(rng, 0.5f, 1.0f);
    max_pool.forward(in, out, pool);
    max_pool.backward(in, out, eo, ei, pool);

    // Gradient mass is conserved and lands only inside the windows.
    double eo_sum = 0, ei_sum = 0;
    for (std::int64_t i = 0; i < eo.size(); ++i)
        eo_sum += eo.data()[i];
    for (std::int64_t i = 0; i < ei.size(); ++i)
        ei_sum += ei.data()[i];
    EXPECT_NEAR(eo_sum, ei_sum, 1e-6);
    // Column 2 and row 2 (between the stride-3 windows) are never
    // covered by a 2x2 kernel at offsets {0, 3}: check a sample.
    for (std::int64_t y = 0; y < 7; ++y)
        EXPECT_EQ(ei.data()[y * 7 + 2], 0.0f) << "row " << y;
}

TEST(PoolEdgeCases, OddGeometryAveragePoolBackward)
{
    ThreadPool pool(2);
    Geometry geom{2, 5, 5};
    PoolLayer avg_pool(geom, 2, 2, PoolLayer::Mode::Avg);
    Geometry og = avg_pool.outputGeometry();
    EXPECT_EQ(og.h, 2);
    EXPECT_EQ(og.w, 2);
    Tensor in(Shape{1, 2, 5, 5});
    Tensor out(Shape{1, 2, og.h, og.w});
    Tensor eo(Shape{1, 2, og.h, og.w});
    Tensor ei(Shape{1, 2, 5, 5});
    Rng rng(29);
    in.fillUniform(rng);
    eo.fill(4.0f);
    avg_pool.forward(in, out, pool);
    avg_pool.backward(in, out, eo, ei, pool);
    // Every covered input cell gets eo / k^2 = 1.0; the last row and
    // column (odd leftover) get nothing.
    for (std::int64_t c = 0; c < 2; ++c) {
        for (std::int64_t y = 0; y < 5; ++y) {
            for (std::int64_t x = 0; x < 5; ++x) {
                float v = ei.data()[(c * 5 + y) * 5 + x];
                if (y < 4 && x < 4)
                    EXPECT_EQ(v, 1.0f) << c << "," << y << "," << x;
                else
                    EXPECT_EQ(v, 0.0f) << c << "," << y << "," << x;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fused sparsity accounting: the conv layer must report POST-mask
// sparsity (what its BP engines actually see), not raw eo sparsity.

TEST(FusedConvLayer, ReportsPostMaskSparsity)
{
    for (int threads : {2, 4}) {
        ThreadPool pool(threads);
        Rng rng(57);
        ConvSpec spec{8, 8, 2, 3, 3, 3, 1, 1};
        ConvLayer layer("convX", spec, rng);
        layer.setFusedRelu(true);
        Tensor in(Shape{2, spec.nc, spec.ny, spec.nx});
        Tensor out(Shape{2, spec.nf, spec.outY(), spec.outX()});
        Tensor eo(Shape{2, spec.nf, spec.outY(), spec.outX()});
        Tensor ei(Shape{2, spec.nc, spec.ny, spec.nx});
        in.fillUniform(rng);
        eo.fillUniform(rng, 0.5f, 1.0f);  // dense, all non-zero
        layer.forward(in, out, pool);
        layer.backward(in, out, eo, ei, pool);
        // eo itself is dense; the reported sparsity must equal the
        // mask's clipped fraction.
        double expected = out.sparsity();
        EXPECT_GT(expected, 0.0) << threads << " threads";
        EXPECT_NEAR(layer.lastErrorSparsity(), expected, 1e-12)
            << threads << " threads";
    }
}

// ---------------------------------------------------------------------------
// A conv->conv pair (created by epilogue fusion collapsing
// conv->relu->conv) with both convs on the direct engine trains
// bit-for-bit like the unfused stack with its standalone ReLUs.

namespace {

NetConfig
convChainConfig(bool fuse)
{
    NetConfig cfg;
    cfg.name = "conv-chain";
    cfg.channels = 3;
    cfg.height = 14;
    cfg.width = 14;
    cfg.classes = 4;
    cfg.fuse_epilogues = fuse;
    cfg.layers = {
        LayerConfig{LayerKind::Conv, "", 12, 3, 1, 0},
        LayerConfig{LayerKind::Relu, "", 0, 0, 1, 0},
        LayerConfig{LayerKind::Conv, "", 9, 3, 1, 0},
        LayerConfig{LayerKind::Relu, "", 0, 0, 1, 0},
        LayerConfig{LayerKind::Fc, "", 0, 0, 1, 4},
        LayerConfig{LayerKind::Softmax, "", 0, 0, 1, 0},
    };
    return cfg;
}

void
deployDirect(Network &net)
{
    for (ConvLayer *conv : net.convLayers())
        conv->setEngines(EngineAssignment{"direct", "direct", "direct"});
}

} // namespace

TEST(FusedNetwork, DirectConvChainTrainsBitForBitLikeUnfused)
{
    ThreadPool pool(3);
    Network fused(convChainConfig(true), 23);
    Network plain(convChainConfig(false), 23);
    deployDirect(fused);
    deployDirect(plain);

    const std::int64_t batch = 3;
    Rng data_rng(9);
    Tensor images(Shape{batch, 3, 14, 14});
    std::vector<int> labels;
    for (int step = 0; step < 3; ++step) {
        fillStepData(data_rng, images, labels, 4);
        StepStats a = fused.trainStep(images, labels, 0.05f, pool);
        StepStats b = plain.trainStep(images, labels, 0.05f, pool);
        ASSERT_EQ(a.loss, b.loss) << "step " << step;
    }

    for (ConvLayer *cf : fused.convLayers())
        for (ConvLayer *cp : plain.convLayers())
            if (cf->spec().str() == cp->spec().str())
                expectBitEqual(cf->weights(), cp->weights(),
                               "weights " + cf->spec().str());
}
