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

#include "blas/gemm.hh"
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

/**
 * The max-pool forward as it was before it was vectorized: a branch per
 * window element, strict `>` in (ky, kx) order from the window's (0, 0)
 * element. Kept here as the oracle of the tie and NaN rule.
 */
void
maxPoolReference(const float *in, std::int64_t planes, std::int64_t h,
                 std::int64_t w, std::int64_t k, std::int64_t s,
                 float *out, std::int32_t *argmax)
{
    const std::int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
    for (std::int64_t p = 0; p < planes; ++p) {
        const float *plane = in + p * h * w;
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
                std::int64_t y0 = y * s, x0 = x * s;
                float best = plane[y0 * w + x0];
                std::int64_t best_idx = y0 * w + x0;
                for (std::int64_t ky = 0; ky < k; ++ky)
                    for (std::int64_t kx = 0; kx < k; ++kx) {
                        std::int64_t idx = (y0 + ky) * w + x0 + kx;
                        if (plane[idx] > best) {
                            best = plane[idx];
                            best_idx = idx;
                        }
                    }
                out[(p * oh + y) * ow + x] = best;
                argmax[(p * oh + y) * ow + x] =
                    static_cast<std::int32_t>(best_idx);
            }
        }
    }
}

/** Inputs rich in ties, signed zeros, NaNs and infinities. */
void
fillPoolEdgeCases(Tensor &t, Rng &rng)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < t.size(); ++i) {
        switch (rng.below(10)) {
          case 0: t[i] = nan; break;
          case 1: t[i] = inf; break;
          case 2: t[i] = -inf; break;
          case 3: t[i] = 0.0f; break;
          case 4: t[i] = -0.0f; break;
          case 5:
          case 6: t[i] = static_cast<float>(rng.below(3)) - 1.0f; break;
          default: t[i] = rng.uniform(-2.0f, 2.0f); break;
        }
    }
}

TEST(PoolLayer, MaxForwardMatchesScalarReference)
{
    struct Window
    {
        std::int64_t k, s;
    };
    // Non-overlapping, odd, strided-past-the-window and overlapping;
    // a window wider than two vectors takes the scalar path on every
    // build.
    const Window windows[] = {{2, 2}, {3, 2}, {4, 4},
                              {2, 3}, {3, 1}, {33, 2}};
    const std::int64_t out_widths[] = {1, 7, 24, 33, 70};
    const std::int64_t batches[] = {1, 3, 16};
    const int pool_sizes[] = {1, 2, 4};
    for (int threads : pool_sizes) {
        ThreadPool pool(threads);
        for (const Window &win : windows) {
            for (std::int64_t ow : out_widths) {
                for (std::int64_t batch : batches) {
                    // Odd output widths leave s - 1 input columns (and
                    // the last rows) that no window reaches.
                    const std::int64_t w =
                        (ow - 1) * win.s + win.k + (ow % 2) * (win.s - 1);
                    const std::int64_t h = 2 * win.s + win.k + 1;
                    const Geometry g{2, h, w};
                    PoolLayer layer(g, win.k, win.s, PoolLayer::Mode::Max);
                    const Geometry og = layer.outputGeometry();
                    ASSERT_EQ(og.w, ow);
                    Rng rng(static_cast<std::uint64_t>(
                        threads * 1000003 + win.k * 10007 + win.s * 101 +
                        ow * 7 + batch));
                    Tensor in(Shape{batch, g.c, g.h, g.w});
                    fillPoolEdgeCases(in, rng);
                    Tensor out(Shape{batch, og.c, og.h, og.w});
                    out.fill(123.0f);
                    layer.forward(in, out, pool);

                    Tensor want(Shape{batch, og.c, og.h, og.w});
                    std::vector<std::int32_t> want_am(
                        static_cast<std::size_t>(want.size()));
                    maxPoolReference(in.data(), batch * g.c, h, w, win.k,
                                     win.s, want.data(), want_am.data());
                    SCOPED_TRACE(testing::Message()
                                 << "k" << win.k << " s" << win.s << " ow"
                                 << ow << " b" << batch << " threads "
                                 << threads);
                    ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                          sizeof(float) * want.size()),
                              0);

                    // The argmax is read back through backward(): each
                    // output's distinct error lands at its argmax, and
                    // overlapping windows sum in output order.
                    Tensor eo(Shape{batch, og.c, og.h, og.w});
                    eo.fillUniform(rng, 1.0f, 2.0f);
                    Tensor ei(Shape{batch, g.c, g.h, g.w});
                    layer.backward(in, out, eo, ei, pool);
                    Tensor want_ei(Shape{batch, g.c, g.h, g.w});
                    want_ei.zero();
                    const std::int64_t op = og.h * og.w;
                    for (std::int64_t o = 0; o < eo.size(); ++o)
                        want_ei[o / op * h * w +
                                want_am[static_cast<std::size_t>(o)]] +=
                            eo[o];
                    ASSERT_EQ(std::memcmp(ei.data(), want_ei.data(),
                                          sizeof(float) * want_ei.size()),
                              0);
                }
            }
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

/**
 * What FcLayer::forward must produce, bit for bit: sgemm's product of
 * the layer's current weights, then the bias epilogue.
 */
Tensor
fcReference(FcLayer &fc, const Tensor &in, bool relu)
{
    const std::int64_t batch = in.shape()[0];
    const std::int64_t d = fc.inputGeometry().elems();
    const std::int64_t outputs = fc.outputGeometry().c;
    const float *w = fc.params()[0]->data();
    const float *bias = fc.params()[1]->data();
    Tensor out(Shape{batch, outputs, 1, 1});
    sgemm(Trans::No, Trans::Yes, batch, outputs, d, 1.0f, in.data(), d, w,
          d, 0.0f, out.data(), outputs);
    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t j = 0; j < outputs; ++j) {
            float v = out[b * outputs + j] + bias[j];
            out[b * outputs + j] = relu ? (v > 0.0f ? v : 0.0f) : v;
        }
    }
    return out;
}

TEST(FcLayer, ForwardMatchesSgemmBytewise)
{
    const std::int64_t depths[] = {1, 255, 256, 257, 2880};
    const std::int64_t widths[] = {1, 10, 16, 17, 100};
    ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
    for (std::int64_t d : depths) {
        for (std::int64_t outputs : widths) {
            for (std::int64_t batch = 1; batch <= 17; ++batch) {
                for (int relu = 0; relu < 2; ++relu) {
                    ThreadPool &pool = pools[batch % 3];
                    SCOPED_TRACE(testing::Message()
                                 << "d" << d << " outputs " << outputs
                                 << " b" << batch << (relu ? " relu" : ""));
                    Rng rng(static_cast<std::uint64_t>(
                        d * 1009 + outputs * 31 + batch * 2 + relu));
                    const Geometry g{d, 1, 1};
                    FcLayer fc(g, outputs, rng);
                    fc.setFusedRelu(relu != 0);
                    Tensor in(Shape{batch, d, 1, 1});
                    Tensor out(Shape{batch, outputs, 1, 1});
                    auto check = [&](const char *stage) {
                        in.fillUniform(rng);
                        fc.forward(in, out, pool);
                        Tensor want = fcReference(fc, in, relu != 0);
                        ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                              sizeof(float) * want.size()),
                                  0)
                            << "after " << stage;
                    };
                    check("construction");

                    Tensor eo(Shape{batch, outputs, 1, 1});
                    eo.fillUniform(rng);
                    Tensor ei(Shape{batch, d, 1, 1});
                    fc.backward(in, out, eo, ei, pool);
                    fc.update(0.05f, pool);
                    check("update");

                    fc.params()[0]->fillUniform(rng);
                    fc.params()[1]->fillUniform(rng);
                    fc.paramsUpdated();
                    check("an external write");

                    fc.pruneToSparsity(0.5);
                    check("pruneToSparsity");

                    FcLayer serving(g, outputs, rng);
                    serving.setFusedRelu(relu != 0);
                    serving.setInferenceOnly();
                    in.fillUniform(rng);
                    serving.forward(in, out, pool);
                    Tensor want = fcReference(serving, in, relu != 0);
                    ASSERT_EQ(std::memcmp(out.data(), want.data(),
                                          sizeof(float) * want.size()),
                              0)
                        << "inference-only";
                }
            }
        }
    }
}

// DeterminismSgdUpdate: the pool-parallel SGD step must give the bytes
// of the serial expression at every pool size: w - lr * dw rounded once
// (the fused multiply-subtract the old serial loops compiled to), then
// the prune mask. FcLayer's W^T, written in the same pass, must agree
// with the weights (checked through forward() against sgemm).
TEST(DeterminismSgdUpdate, ByteIdenticalAtEveryPoolSize)
{
    const float lr = 0.05f;
    for (bool pruned : {false, true}) {
        // Serial reference from one set of weights and gradients.
        Rng rng(pruned ? 41 : 40);
        ConvSpec spec{14, 14, 3, 8, 3, 3, 1, 1};
        Rng init_rng(7);
        ConvLayer conv_ref("conv_ref", spec, init_rng);
        FcLayer fc_ref(Geometry{6, 7, 9}, 19, init_rng);
        if (pruned) {
            conv_ref.pruneToSparsity(0.6);
            fc_ref.pruneToSparsity(0.6);
        }
        Tensor conv_dw(conv_ref.weights().shape());
        conv_dw.fillUniform(rng);
        Tensor fc_dw(fc_ref.grads()[0]->shape());
        fc_dw.fillUniform(rng);
        Tensor fc_db(fc_ref.grads()[1]->shape());
        fc_db.fillUniform(rng);
        auto serial = [&](Layer &layer, const Tensor &dw) {
            Tensor w = layer.params()[0]->clone();
            const std::vector<std::uint8_t> &mask = *layer.pruneMask();
            for (std::int64_t i = 0; i < w.size(); ++i)
                w[i] = std::fma(-lr, dw[i], w[i]);
            for (std::int64_t i = 0; i < w.size(); ++i)
                if (!mask.empty() && !mask[static_cast<std::size_t>(i)])
                    w[i] = 0.0f;
            return w;
        };
        Tensor conv_want = serial(conv_ref, conv_dw);
        Tensor fc_want = serial(fc_ref, fc_dw);
        Tensor bias_want = fc_ref.params()[1]->clone();
        for (std::int64_t j = 0; j < bias_want.size(); ++j)
            bias_want[j] = std::fma(-lr, fc_db[j], bias_want[j]);

        for (int threads : {1, 2, 4}) {
            SCOPED_TRACE(testing::Message()
                         << (pruned ? "pruned, " : "dense, ") << threads
                         << " threads");
            ThreadPool pool(threads);
            Rng same_init(7);
            ConvLayer conv("conv", spec, same_init);
            FcLayer fc(Geometry{6, 7, 9}, 19, same_init);
            if (pruned) {
                conv.pruneToSparsity(0.6);
                fc.pruneToSparsity(0.6);
            }
            // One forward packs W^T before the update rewrites it.
            Tensor in(Shape{3, 6, 7, 9});
            in.fillUniform(rng);
            Tensor out(Shape{3, 19, 1, 1});
            fc.forward(in, out, pool);

            auto setGrad = [](Tensor *g, const Tensor &value) {
                std::memcpy(g->data(), value.data(),
                            sizeof(float) * value.size());
            };
            setGrad(conv.grads()[0], conv_dw);
            setGrad(fc.grads()[0], fc_dw);
            setGrad(fc.grads()[1], fc_db);
            conv.update(lr, pool);
            fc.update(lr, pool);
            EXPECT_EQ(std::memcmp(conv.weights().data(), conv_want.data(),
                                  sizeof(float) * conv_want.size()),
                      0)
                << "conv weights";
            EXPECT_EQ(std::memcmp(fc.params()[0]->data(), fc_want.data(),
                                  sizeof(float) * fc_want.size()),
                      0)
                << "fc weights";
            EXPECT_EQ(std::memcmp(fc.params()[1]->data(), bias_want.data(),
                                  sizeof(float) * bias_want.size()),
                      0)
                << "fc bias";
            fc.forward(in, out, pool);
            Tensor want = fcReference(fc, in, false);
            EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                  sizeof(float) * want.size()),
                      0)
                << "fc W^T";
        }
    }
}

TEST(NetworkDeath, ApplyUpdateWithoutForwardBackward)
{
    NetConfig config = parseNetConfig(R"(
        name: "tiny"
        input { channels: 1 height: 8 width: 8 classes: 3 }
        layer { type: conv features: 2 kernel: 3 }
        layer { type: fc outputs: 3 }
        layer { type: softmax }
    )");
    EXPECT_DEATH(
        {
            Network net(config, 1);
            net.applyUpdate(0.1f);
        },
        "applyUpdate\\(\\) without a preceding forwardBackward\\(\\)");
}

} // namespace
} // namespace spg
