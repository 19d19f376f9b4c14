/**
 * @file
 * Tests for the neural-network stack: layer semantics, numerical
 * gradient checks through the whole backward pass, and end-to-end
 * training behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/net_config.hh"
#include "data/suites.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"

namespace spg {
namespace {

TEST(ReluLayer, ForwardClampsAndBackwardMasks)
{
    Geometry g{2, 2, 2};
    ReluLayer relu(g);
    ThreadPool pool(2);
    Tensor in(Shape{1, 2, 2, 2});
    float vals[] = {-1, 2, -3, 4, 0, -5, 6, -7};
    for (int i = 0; i < 8; ++i)
        in[i] = vals[i];
    Tensor out(Shape{1, 2, 2, 2});
    relu.forward(in, out, pool);
    float expect[] = {0, 2, 0, 4, 0, 0, 6, 0};
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], expect[i]) << i;

    Tensor eo(Shape{1, 2, 2, 2});
    eo.fill(1.0f);
    Tensor ei(Shape{1, 2, 2, 2});
    relu.backward(in, out, eo, ei, pool);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ei[i], vals[i] > 0 ? 1.0f : 0.0f) << i;
}

TEST(PoolLayer, MaxPoolForwardBackward)
{
    Geometry g{1, 4, 4};
    PoolLayer pool_layer(g, 2, 2, PoolLayer::Mode::Max);
    ThreadPool pool(1);
    Tensor in(Shape{1, 1, 4, 4});
    for (int i = 0; i < 16; ++i)
        in[i] = static_cast<float>(i);
    Tensor out(Shape{1, 1, 2, 2});
    pool_layer.forward(in, out, pool);
    EXPECT_EQ(out[0], 5);   // max of {0,1,4,5}
    EXPECT_EQ(out[1], 7);
    EXPECT_EQ(out[2], 13);
    EXPECT_EQ(out[3], 15);

    Tensor eo(Shape{1, 1, 2, 2});
    eo[0] = 10;
    eo[1] = 20;
    eo[2] = 30;
    eo[3] = 40;
    Tensor ei(Shape{1, 1, 4, 4});
    pool_layer.backward(in, out, eo, ei, pool);
    EXPECT_EQ(ei[5], 10);
    EXPECT_EQ(ei[7], 20);
    EXPECT_EQ(ei[13], 30);
    EXPECT_EQ(ei[15], 40);
    float total = 0;
    for (int i = 0; i < 16; ++i)
        total += ei[i];
    EXPECT_EQ(total, 100);  // gradient mass preserved
}

TEST(PoolLayer, AvgPoolDistributesGradient)
{
    Geometry g{1, 4, 4};
    PoolLayer pool_layer(g, 2, 2, PoolLayer::Mode::Avg);
    ThreadPool pool(1);
    Tensor in(Shape{1, 1, 4, 4});
    in.fill(8.0f);
    Tensor out(Shape{1, 1, 2, 2});
    pool_layer.forward(in, out, pool);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(out[i], 8.0f);
    Tensor eo(Shape{1, 1, 2, 2});
    eo.fill(4.0f);
    Tensor ei(Shape{1, 1, 4, 4});
    pool_layer.backward(in, out, eo, ei, pool);
    for (int i = 0; i < 16; ++i)
        EXPECT_FLOAT_EQ(ei[i], 1.0f);
}

TEST(PoolLayer, BackwardOverwritesPoisonedInputGradient)
{
    // Each (image, channel) task zeroes its own ei plane, so ei may
    // arrive holding garbage: a NaN-poisoned ei must come out byte-
    // identical to a zero-prefilled one — including the pixels no
    // window covers (odd extents, stride > kernel).
    struct Case
    {
        Geometry g;
        std::int64_t kernel, stride;
    };
    const Case cases[] = {{{3, 7, 5}, 2, 2}, {{2, 7, 7}, 2, 3},
                          {{3, 9, 8}, 3, 2}};
    const float nan = std::numeric_limits<float>::quiet_NaN();
    ThreadPool pool(3);
    for (const Case &tc : cases) {
        for (auto mode : {PoolLayer::Mode::Max, PoolLayer::Mode::Avg}) {
            PoolLayer layer(tc.g, tc.kernel, tc.stride, mode);
            Geometry og = layer.outputGeometry();
            Rng rng(tc.g.h * 17 + tc.stride);
            Tensor in(Shape{2, tc.g.c, tc.g.h, tc.g.w});
            Tensor out(Shape{2, og.c, og.h, og.w});
            Tensor eo(Shape{2, og.c, og.h, og.w});
            in.fillUniform(rng);
            eo.fillUniform(rng, -1.0f, 1.0f);
            layer.forward(in, out, pool);

            Tensor zeroed(Shape{2, tc.g.c, tc.g.h, tc.g.w});
            Tensor poisoned(Shape{2, tc.g.c, tc.g.h, tc.g.w});
            zeroed.zero();
            poisoned.fill(nan);
            layer.backward(in, out, eo, zeroed, pool);
            layer.backward(in, out, eo, poisoned, pool);
            EXPECT_EQ(std::memcmp(zeroed.data(), poisoned.data(),
                                  sizeof(float) * zeroed.size()),
                      0)
                << tc.g.c << "x" << tc.g.h << "x" << tc.g.w << " k"
                << tc.kernel << " s" << tc.stride
                << (mode == PoolLayer::Mode::Max ? " max" : " avg");
        }
    }
}

TEST(SoftmaxLayer, ProbabilitiesAndLoss)
{
    Geometry g{3, 1, 1};
    SoftmaxLayer sm(g);
    ThreadPool pool(1);
    Tensor in(Shape{2, 3, 1, 1});
    // Image 0: strongly class 2; image 1: uniform.
    in[0] = 0;
    in[1] = 0;
    in[2] = 10;
    in[3] = 1;
    in[4] = 1;
    in[5] = 1;
    sm.setLabels({2, 1});
    Tensor out(Shape{2, 3, 1, 1});
    sm.forward(in, out, pool);
    EXPECT_NEAR(out[2], 1.0f, 1e-3);
    EXPECT_NEAR(out[3], 1.0f / 3, 1e-5);
    EXPECT_NEAR(out[0] + out[1] + out[2], 1.0f, 1e-5);
    // loss = (-log(~1) - log(1/3)) / 2.
    EXPECT_NEAR(sm.loss(), std::log(3.0) / 2, 1e-3);
    // Image 1 is a three-way tie; argmax resolves to class 0, so the
    // label-1 image counts as wrong.
    EXPECT_NEAR(sm.accuracy(), 0.5, 1e-9);

    Tensor ei(Shape{2, 3, 1, 1});
    Tensor dummy(Shape{2, 3, 1, 1});
    sm.backward(in, out, dummy, ei, pool);
    // Gradient sums to zero per image.
    EXPECT_NEAR(ei[0] + ei[1] + ei[2], 0.0f, 1e-6);
    EXPECT_NEAR(ei[3] + ei[4] + ei[5], 0.0f, 1e-6);
    EXPECT_LT(ei[2], 0.0f);  // true-class gradient is negative
}

/**
 * Numerical gradient check through a conv + relu + fc + softmax
 * network: analytic weight gradients must match central differences.
 */
TEST(Network, NumericalGradientCheck)
{
    NetConfig config = parseNetConfig(R"(
        name: "gradcheck"
        input { channels: 2 height: 7 width: 7 classes: 3 }
        layer { type: conv features: 3 kernel: 3 }
        layer { type: relu }
        layer { type: fc outputs: 3 }
        layer { type: softmax }
    )");
    Network net(config, 11);
    ThreadPool pool(1);

    Rng rng(5);
    Tensor images(Shape{2, 2, 7, 7});
    images.fillUniform(rng);
    std::vector<int> labels = {1, 2};

    ConvLayer *conv = net.convLayers()[0];

    // Analytic gradients from one backward pass (no update).
    // trainStep would update weights; replicate forward+backward via a
    // zero learning rate step.
    net.trainStep(images, labels, 0.0f, pool);
    Tensor analytic = conv->weightGradients().clone();

    // Central differences on a sample of weights.
    SoftmaxLayer *head = nullptr;  // loss via evalAccuracy path
    (void)head;
    auto loss_at = [&]() {
        // forward-only loss
        Network &n = net;
        // trainStep with lr 0 recomputes loss without changing params.
        StepStats s = n.trainStep(images, labels, 0.0f, pool);
        return s.loss;
    };

    const float h = 1e-2f;
    int checked = 0;
    for (std::int64_t i = 0; i < conv->weights().size();
         i += conv->weights().size() / 7 + 1) {
        float saved = conv->weights()[i];
        conv->weights()[i] = saved + h;
        double up = loss_at();
        conv->weights()[i] = saved - h;
        double down = loss_at();
        conv->weights()[i] = saved;
        double numeric = (up - down) / (2 * h);
        EXPECT_NEAR(analytic[i], numeric,
                    2e-2 * std::max(1.0, std::abs(numeric)))
            << "weight " << i;
        ++checked;
    }
    EXPECT_GE(checked, 5);
}

TEST(Network, BuildsFromConfigAndReportsShapes)
{
    Network net(parseNetConfig(cifar10NetConfigText()), 3);
    EXPECT_EQ(net.inputGeometry().c, 3);
    EXPECT_EQ(net.inputGeometry().h, 36);
    EXPECT_EQ(net.classes(), 10);
    auto convs = net.convLayers();
    ASSERT_EQ(convs.size(), 2u);
    // Table 2 geometry: conv1 must see 64x8x8.
    EXPECT_EQ(convs[1]->spec().nc, 64);
    EXPECT_EQ(convs[1]->spec().nx, 8);
    EXPECT_GT(net.paramCount(), 0);
}

TEST(Network, ForwardProducesProbabilities)
{
    Network net(parseNetConfig(mnistNetConfigText()), 4);
    ThreadPool pool(2);
    Rng rng(6);
    Tensor images(Shape{3, 1, 28, 28});
    images.fillUniform(rng);
    const Tensor &probs = net.forward(images, pool);
    for (std::int64_t b = 0; b < 3; ++b) {
        float sum = 0;
        for (std::int64_t j = 0; j < 10; ++j) {
            float p = probs[b * 10 + j];
            EXPECT_GE(p, 0.0f);
            EXPECT_LE(p, 1.0f);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4);
    }
}

TEST(Network, EngineChoiceDoesNotChangeResults)
{
    // The same network computes the same outputs whichever engines
    // its conv layers deploy.
    NetConfig config = parseNetConfig(mnistNetConfigText());
    ThreadPool pool(2);
    Rng rng(8);
    Tensor images(Shape{4, 1, 28, 28});
    images.fillUniform(rng);
    std::vector<int> labels = {0, 1, 2, 3};

    std::vector<EngineAssignment> assignments = {
        {"parallel-gemm", "parallel-gemm", "parallel-gemm"},
        {"gemm-in-parallel", "gemm-in-parallel", "gemm-in-parallel"},
        {"direct", "sparse", "sparse"},
    };
    std::vector<double> losses;
    for (const auto &assignment : assignments) {
        Network net(config, 77);  // same seed -> same weights
        for (ConvLayer *conv : net.convLayers())
            conv->setEngines(assignment);
        StepStats s = net.trainStep(images, labels, 0.0f, pool);
        losses.push_back(s.loss);
    }
    EXPECT_NEAR(losses[0], losses[1], 1e-4);
    EXPECT_NEAR(losses[0], losses[2], 1e-4);
}

TEST(Trainer, LossDecreasesOnLearnableTask)
{
    setLogLevel(LogLevel::Quiet);
    Dataset ds = makeMnistLike(128, 42);
    Network net(parseNetConfig(mnistNetConfigText()), 9);
    TrainerOptions opts;
    opts.epochs = 3;
    opts.batch = 16;
    opts.learning_rate = 0.05f;
    opts.mode = TrainerOptions::Mode::Fixed;
    opts.log_epochs = false;
    ThreadPool pool(2);
    Trainer trainer(net, ds, opts);
    auto history = trainer.run(pool);
    ASSERT_EQ(history.size(), 3u);
    EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
    EXPECT_GT(history.back().accuracy, 0.8);
    EXPECT_GT(trainer.overallThroughput(), 0.0);
}

TEST(Trainer, RecordsErrorSparsityAndEngines)
{
    setLogLevel(LogLevel::Quiet);
    Dataset ds = makeMnistLike(64, 43);
    Network net(parseNetConfig(mnistNetConfigText()), 10);
    TrainerOptions opts;
    opts.epochs = 2;
    opts.batch = 16;
    opts.mode = TrainerOptions::Mode::Autotune;
    opts.tuner.reps = 1;
    opts.tuner.batch = 2;
    opts.log_epochs = false;
    ThreadPool pool(2);
    Trainer trainer(net, ds, opts);
    auto history = trainer.run(pool);
    for (const auto &epoch : history) {
        ASSERT_EQ(epoch.conv_error_sparsity.size(), 1u);
        EXPECT_GT(epoch.conv_error_sparsity[0], 0.3);
        EXPECT_LE(epoch.conv_error_sparsity[0], 1.0);
        ASSERT_EQ(epoch.conv_engines.size(), 1u);
        EXPECT_FALSE(epoch.conv_engines[0].fp.empty());
    }
}

TEST(Trainer, RejectsMismatchedDataset)
{
    Dataset ds = makeCifarLike(16, 44);
    Network net(parseNetConfig(mnistNetConfigText()), 11);
    EXPECT_DEATH(
        { Trainer trainer(net, ds, TrainerOptions{}); }, "does not match");
}

TEST(Trainer, RejectsDatasetSmallerThanOneBatch)
{
    Dataset ds = makeMnistLike(8, 45);
    Network net(parseNetConfig(mnistNetConfigText()), 12);
    TrainerOptions opts;
    opts.batch = 16;
    EXPECT_DEATH({ Trainer trainer(net, ds, opts); },
                 "fewer than one batch of 16");
}

TEST(Trainer, WarnsOnceWhenTheErrorsDie)
{
    // Zero conv weights (the layer has no bias) leave every ReLU at 0,
    // so no error flows back into conv0: its error sparsity is 1.0 in
    // every epoch, and the trainer says so exactly once.
    setLogLevel(LogLevel::Quiet);
    Dataset ds = makeMnistLike(32, 46);
    Network net(parseNetConfig(mnistNetConfigText()), 13);
    net.convLayers()[0]->params()[0]->zero();
    net.convLayers()[0]->paramsUpdated();
    TrainerOptions opts;
    opts.epochs = 3;
    opts.batch = 16;
    opts.learning_rate = 0.0f;
    opts.mode = TrainerOptions::Mode::Fixed;
    opts.log_epochs = false;
    ThreadPool pool(1);
    Trainer trainer(net, ds, opts);
    ::testing::internal::CaptureStderr();
    auto history = trainer.run(pool);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(history.back().conv_error_sparsity[0], 1.0);
    std::size_t first = err.find("stopped learning");
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find("stopped learning", first + 1), std::string::npos)
        << err;
}

TEST(FcLayer, LinearityAndBias)
{
    Geometry g{4, 1, 1};
    Rng rng(12);
    FcLayer fc(g, 2, rng);
    ThreadPool pool(1);
    Tensor zero(Shape{1, 4, 1, 1});
    Tensor out(Shape{1, 2, 1, 1});
    fc.forward(zero, out, pool);
    // Bias starts at zero, weights arbitrary: zero input -> zero out.
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);

    // f(2x) = 2 f(x) with zero bias.
    Tensor x(Shape{1, 4, 1, 1});
    x.fillUniform(rng);
    Tensor x2 = x.clone();
    for (std::int64_t i = 0; i < x2.size(); ++i)
        x2[i] *= 2.0f;
    Tensor y1(Shape{1, 2, 1, 1});
    Tensor y2(Shape{1, 2, 1, 1});
    fc.forward(x, y1, pool);
    fc.forward(x2, y2, pool);
    EXPECT_NEAR(y2[0], 2 * y1[0], 1e-5);
    EXPECT_NEAR(y2[1], 2 * y1[1], 1e-5);
}

} // namespace
} // namespace spg
