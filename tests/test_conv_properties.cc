/**
 * @file
 * Property-based tests of the convolution engines.
 *
 * Rather than comparing against the reference on fixed inputs, these
 * tests check mathematical invariants that must hold for EVERY
 * correct implementation:
 *
 *  - linearity of FP in the input and in the weights;
 *  - adjointness: backward-data is the transpose of forward, so
 *    <conv(x), e> == <x, conv^T(e)> for all x, e;
 *  - the weight gradient is the directional derivative of the output
 *    along the weights;
 *  - determinism: identical results for any worker-pool size and on
 *    repeated runs (no data races, no uninitialized scratch).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "conv/engines.hh"
#include "tensor/blocked.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

/** Flat inner product of two same-sized tensors (double accum). */
double
dot(const Tensor &a, const Tensor &b)
{
    double sum = 0;
    for (std::int64_t i = 0; i < a.size(); ++i)
        sum += static_cast<double>(a[i]) * b[i];
    return sum;
}

class ConvProperty
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
  protected:
    static const ConvSpec &spec()
    {
        static const ConvSpec specs[] = {
            ConvSpec{9, 9, 2, 3, 3, 3, 1, 1},
            ConvSpec{12, 10, 3, 5, 4, 2, 1, 1},
            ConvSpec{14, 14, 2, 4, 3, 3, 2, 2},
            ConvSpec{11, 11, 4, 2, 5, 5, 3, 3},
        };
        return specs[std::get<0>(GetParam())];
    }

    static std::unique_ptr<ConvEngine> engine()
    {
        return makeEngine(std::get<1>(GetParam()));
    }
};

TEST_P(ConvProperty, ForwardIsLinearInInput)
{
    const ConvSpec &s = spec();
    auto eng = engine();
    if (!eng->supports(Phase::Forward))
        GTEST_SKIP();
    ThreadPool pool(2);
    Rng rng(100 + std::get<0>(GetParam()));

    Tensor x1(Shape{1, s.nc, s.ny, s.nx});
    Tensor x2(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    x1.fillUniform(rng);
    x2.fillUniform(rng);
    w.fillUniform(rng);

    const float a = 2.5f, b = -1.25f;
    Tensor combo(Shape{1, s.nc, s.ny, s.nx});
    for (std::int64_t i = 0; i < combo.size(); ++i)
        combo[i] = a * x1[i] + b * x2[i];

    Shape out_shape{1, s.nf, s.outY(), s.outX()};
    Tensor y1(out_shape), y2(out_shape), y_combo(out_shape);
    eng->forward(s, x1, w, y1, pool);
    eng->forward(s, x2, w, y2, pool);
    eng->forward(s, combo, w, y_combo, pool);

    for (std::int64_t i = 0; i < y_combo.size(); ++i) {
        float expect = a * y1[i] + b * y2[i];
        ASSERT_NEAR(y_combo[i], expect,
                    1e-3f * std::max(1.0f, std::fabs(expect)))
            << i;
    }
}

TEST_P(ConvProperty, ForwardIsLinearInWeights)
{
    const ConvSpec &s = spec();
    auto eng = engine();
    if (!eng->supports(Phase::Forward))
        GTEST_SKIP();
    ThreadPool pool(2);
    Rng rng(200 + std::get<0>(GetParam()));

    Tensor x(Shape{1, s.nc, s.ny, s.nx});
    Tensor w1(Shape{s.nf, s.nc, s.fy, s.fx});
    Tensor w2(Shape{s.nf, s.nc, s.fy, s.fx});
    x.fillUniform(rng);
    w1.fillUniform(rng);
    w2.fillUniform(rng);

    Tensor w_sum(Shape{s.nf, s.nc, s.fy, s.fx});
    for (std::int64_t i = 0; i < w_sum.size(); ++i)
        w_sum[i] = w1[i] + w2[i];

    Shape out_shape{1, s.nf, s.outY(), s.outX()};
    Tensor y1(out_shape), y2(out_shape), y_sum(out_shape);
    eng->forward(s, x, w1, y1, pool);
    eng->forward(s, x, w2, y2, pool);
    eng->forward(s, x, w_sum, y_sum, pool);

    for (std::int64_t i = 0; i < y_sum.size(); ++i)
        ASSERT_NEAR(y_sum[i], y1[i] + y2[i],
                    1e-3f * std::max(1.0f, std::fabs(y_sum[i])));
}

TEST_P(ConvProperty, BackwardDataIsAdjointOfForward)
{
    // <conv(x), e> == <x, conv^T(e)> for random x and e. This pins
    // BP-data (Eq. 3) against FP (Eq. 2) without any reference code.
    const ConvSpec &s = spec();
    auto eng = engine();
    ThreadPool pool(2);
    Rng rng(300 + std::get<0>(GetParam()));

    Tensor x(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    Tensor e(Shape{1, s.nf, s.outY(), s.outX()});
    x.fillUniform(rng);
    w.fillUniform(rng);
    e.fillUniform(rng);

    ReferenceEngine ref;
    Tensor y(Shape{1, s.nf, s.outY(), s.outX()});
    Tensor xt(Shape{1, s.nc, s.ny, s.nx});
    if (eng->supports(Phase::Forward))
        eng->forward(s, x, w, y, pool);
    else
        ref.forward(s, x, w, y, pool);
    if (eng->supports(Phase::BackwardData))
        eng->backwardData(s, e, w, xt, pool);
    else
        ref.backwardData(s, e, w, xt, pool);

    double lhs = dot(y, e);
    double rhs = dot(x, xt);
    EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST_P(ConvProperty, WeightGradientIsDirectionalDerivative)
{
    // <dW, D> == <conv_{W=D}(x), e>: the Eq. 4 gradient contracted
    // with any direction D equals the output change along D.
    const ConvSpec &s = spec();
    auto eng = engine();
    if (!eng->supports(Phase::BackwardWeights))
        GTEST_SKIP();
    ThreadPool pool(2);
    Rng rng(400 + std::get<0>(GetParam()));

    Tensor x(Shape{2, s.nc, s.ny, s.nx});
    Tensor e(Shape{2, s.nf, s.outY(), s.outX()});
    Tensor direction(Shape{s.nf, s.nc, s.fy, s.fx});
    x.fillUniform(rng);
    e.fillUniform(rng);
    direction.fillUniform(rng);

    Tensor dw(Shape{s.nf, s.nc, s.fy, s.fx});
    eng->backwardWeights(s, e, x, dw, pool);

    ReferenceEngine ref;
    Tensor y_dir(Shape{2, s.nf, s.outY(), s.outX()});
    ref.forward(s, x, direction, y_dir, pool);

    double lhs = dot(dw, direction);
    double rhs = dot(y_dir, e);
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(rhs)));
}

TEST_P(ConvProperty, DeterministicAcrossPoolSizes)
{
    const ConvSpec &s = spec();
    auto eng = engine();
    Rng rng(500 + std::get<0>(GetParam()));

    Tensor x(Shape{3, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    Tensor e(Shape{3, s.nf, s.outY(), s.outX()});
    x.fillUniform(rng);
    w.fillUniform(rng);
    e.fillUniform(rng);
    e.sparsify(rng, 0.7);

    Tensor y_ref, xt_ref, dw_ref;
    bool first = true;
    for (int threads : {1, 2, 5}) {
        ThreadPool pool(threads);
        Tensor y(Shape{3, s.nf, s.outY(), s.outX()});
        Tensor xt(Shape{3, s.nc, s.ny, s.nx});
        Tensor dw(Shape{s.nf, s.nc, s.fy, s.fx});
        if (eng->supports(Phase::Forward))
            eng->forward(s, x, w, y, pool);
        if (eng->supports(Phase::BackwardData))
            eng->backwardData(s, e, w, xt, pool);
        if (eng->supports(Phase::BackwardWeights))
            eng->backwardWeights(s, e, x, dw, pool);
        if (first) {
            y_ref = std::move(y);
            xt_ref = std::move(xt);
            dw_ref = std::move(dw);
            first = false;
            continue;
        }
        if (eng->supports(Phase::Forward)) {
            EXPECT_EQ(maxAbsDiff(y, y_ref), 0.0f) << threads;
        }
        if (eng->supports(Phase::BackwardData)) {
            EXPECT_EQ(maxAbsDiff(xt, xt_ref), 0.0f) << threads;
        }
        if (eng->supports(Phase::BackwardWeights)) {
            EXPECT_LE(maxAbsDiff(dw, dw_ref), 2e-4f) << threads;
        }
    }
}

TEST_P(ConvProperty, RepeatedCallsAreIdentical)
{
    // Scratch reuse must not leak state between calls.
    const ConvSpec &s = spec();
    auto eng = engine();
    if (!eng->supports(Phase::Forward))
        GTEST_SKIP();
    ThreadPool pool(2);
    Rng rng(600 + std::get<0>(GetParam()));
    Tensor x(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    x.fillUniform(rng);
    w.fillUniform(rng);
    Tensor y1(Shape{1, s.nf, s.outY(), s.outX()});
    Tensor y2(Shape{1, s.nf, s.outY(), s.outX()});
    eng->forward(s, x, w, y1, pool);
    // Poison y2, then recompute: must fully overwrite.
    y2.fill(1e30f);
    eng->forward(s, x, w, y2, pool);
    EXPECT_EQ(maxAbsDiff(y1, y2), 0.0f);
}

// ---------------------------------------------------------------------
// The direct engine's NCHWc staging kernels are pure data movement, so
// packing every block and unpacking it again must reproduce the
// original bit for bit — in particular across partial trailing channel
// blocks, whose pad lanes must come out exactly +0.
// ---------------------------------------------------------------------

TEST(BlockedLayout, ActivationRoundTripIsExactForOddChannels)
{
    Rng rng(7001);
    const std::int64_t ny = 5, nx = 6, plane = ny * nx;
    for (std::int64_t c : {1, 3, 5, 7, 8, 9, 16, 17, 23}) {
        const std::int64_t cbn = blockCount(c);
        std::vector<float> x(static_cast<std::size_t>(c * plane));
        for (float &v : x)
            v = rng.uniform(-1.0f, 1.0f);
        // Poisoned destinations: every byte must be written.
        std::vector<float> blocked(
            static_cast<std::size_t>(cbn * plane * kChannelBlock),
            1e30f);
        for (std::int64_t cb = 0; cb < cbn; ++cb)
            packImageBlockNchwc(x.data(), blocked.data(), c, ny, nx,
                                kChannelBlock, cb);
        const std::int64_t tail_live = c - (cbn - 1) * kChannelBlock;
        for (std::int64_t p = 0; p < plane; ++p)
            for (std::int64_t ci = tail_live; ci < kChannelBlock; ++ci) {
                const float pad = blocked[static_cast<std::size_t>(
                    ((cbn - 1) * plane + p) * kChannelBlock + ci)];
                const float zero = 0.0f;
                ASSERT_EQ(std::memcmp(&pad, &zero, sizeof(float)), 0)
                    << "channels=" << c << " pixel " << p << " lane "
                    << ci;
            }
        std::vector<float> back(x.size(), 1e30f);
        for (std::int64_t cb = 0; cb < cbn; ++cb)
            unpackImageBlockNchwc(blocked.data(), back.data(), c, ny, nx,
                                  kChannelBlock, cb);
        EXPECT_EQ(std::memcmp(back.data(), x.data(),
                              x.size() * sizeof(float)),
                  0)
            << "channels=" << c;
    }
}

TEST(BlockedLayout, WeightRoundTripIsExactForOddCounts)
{
    Rng rng(7002);
    const std::int64_t fy = 3, fx = 3, taps = fy * fx;
    const std::int64_t blk = kChannelBlock;
    for (auto [nf, nc] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                          {3, 7},
                          {8, 8},
                          {9, 17},
                          {16, 5},
                          {17, 16}}) {
        const std::int64_t kbn = blockCount(nf), cbn = blockCount(nc);
        std::vector<float> w(static_cast<std::size_t>(nf * nc * taps));
        for (float &v : w)
            v = rng.uniform(-1.0f, 1.0f);
        std::vector<float> blocked(
            static_cast<std::size_t>(
                kcrsckShape(nf, nc, fy, fx).elements()),
            1e30f);
        for (std::int64_t kb = 0; kb < kbn; ++kb)
            for (std::int64_t cb = 0; cb < cbn; ++cb)
                packWeightBlockKcrsck(w.data(), blocked.data(), nf, nc, fy,
                                      fx, blk, kb, cb);
        // Read KCRSck [K/8][C/8][Fy][Fx][8ci][8ko] back into KCRS; every
        // element not read back is a pad lane and must be +0.
        std::vector<float> back(w.size(), 1e30f);
        std::vector<char> live(blocked.size(), 0);
        for (std::int64_t k = 0; k < nf; ++k)
            for (std::int64_t c = 0; c < nc; ++c)
                for (std::int64_t t = 0; t < taps; ++t) {
                    const std::size_t at = static_cast<std::size_t>(
                        (((k / blk) * cbn + c / blk) * taps + t) * blk *
                            blk +
                        (c % blk) * blk + k % blk);
                    back[static_cast<std::size_t>((k * nc + c) * taps +
                                                  t)] = blocked[at];
                    live[at] = 1;
                }
        EXPECT_EQ(std::memcmp(back.data(), w.data(),
                              w.size() * sizeof(float)),
                  0)
            << nf << "x" << nc;
        const float zero = 0.0f;
        for (std::size_t i = 0; i < blocked.size(); ++i) {
            if (!live[i]) {
                ASSERT_EQ(std::memcmp(&blocked[i], &zero, sizeof(float)),
                          0)
                    << nf << "x" << nc << " pad element " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Direct engine: bit-for-bit against the reference on (spatially
// reduced) Table 1 geometries, all three phases, with and without the
// fused ReLU epilogue / BP mask. Outputs are compared byte for byte,
// so a -0 where the reference writes +0 fails.
// ---------------------------------------------------------------------

/** Table 1 kernel/channel characters at test-sized spatial extents;
 *  channel counts reduced where the reference would be too slow, plus
 *  tail-block (non-multiple-of-8) variants. */
const ConvSpec kDirectSpecs[] = {
    ConvSpec::square(16, 32, 32, 4),   // id 0 character
    ConvSpec::square(8, 48, 24, 2),    // id 1 character (channels cut)
    ConvSpec::square(12, 32, 16, 3),   // id 2 character (channels cut)
    ConvSpec::square(14, 16, 8, 7),    // id 3 character
    ConvSpec::square(13, 24, 16, 5),   // id 4 character (channels cut)
    ConvSpec::square(16, 64, 16, 11),  // id 5, exact channels
    ConvSpec{10, 9, 17, 33, 3, 3, 1, 1},   // tail blocks both sides
    ConvSpec{11, 11, 5, 9, 5, 5, 2, 2},    // stride + tails
    ConvSpec{12, 10, 1, 3, 4, 2, 3, 3},    // tiny channels, stride 3
};

class DirectBitForBit : public ::testing::TestWithParam<int>
{
};

/** Byte equality of two same-shaped tensors (tells +0 from -0). */
bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(float)) == 0;
}

TEST_P(DirectBitForBit, AllPhasesMatchReference)
{
    const ConvSpec &s = kDirectSpecs[GetParam()];
    const std::int64_t batch = 2;
    ThreadPool pool(4);
    Rng rng(800 + GetParam());

    Tensor x(Shape{batch, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    Tensor e(Shape{batch, s.nf, s.outY(), s.outX()});
    // Mixed-sign data so ReLU masks have structure.
    x.fillUniform(rng, -1.0f, 1.0f);
    w.fillUniform(rng, -1.0f, 1.0f);
    e.fillUniform(rng, -1.0f, 1.0f);

    ReferenceEngine ref;
    DirectEngine direct;
    Shape out_shape{batch, s.nf, s.outY(), s.outX()};

    // Plain (no epilogue) phases.
    Tensor y_ref(out_shape), y(out_shape);
    ref.forward(s, x, w, y_ref, pool);
    direct.forward(s, x, w, y, pool);
    EXPECT_TRUE(sameBytes(y, y_ref)) << s.str() << " FP";

    Tensor xt_ref(x.shape()), xt(x.shape());
    ref.backwardData(s, e, w, xt_ref, pool);
    direct.backwardData(s, e, w, xt, pool);
    EXPECT_TRUE(sameBytes(xt, xt_ref)) << s.str() << " BP-data";

    Tensor dw_ref(w.shape()), dw(w.shape());
    ref.backwardWeights(s, e, x, dw_ref, pool);
    direct.backwardWeights(s, e, x, dw, pool);
    EXPECT_TRUE(sameBytes(dw, dw_ref)) << s.str() << " BP-weights";

    // Fused ReLU epilogue + BP mask.
    std::vector<std::uint8_t> mask_ref(y_ref.size()),
        mask(y_ref.size());
    Epilogue ep_ref{Epilogue::Kind::ReluMask, mask_ref.data()};
    Epilogue ep{Epilogue::Kind::ReluMask, mask.data()};
    ref.forward(s, x, w, y_ref, pool, ep_ref);
    direct.forward(s, x, w, y, pool, ep);
    EXPECT_TRUE(sameBytes(y, y_ref)) << s.str() << " FP+relu";
    EXPECT_EQ(std::memcmp(mask.data(), mask_ref.data(), mask.size()), 0)
        << s.str() << " mask";

    BpMask bp{mask_ref.data()};
    ref.backwardData(s, e, w, xt_ref, pool, bp);
    direct.backwardData(s, e, w, xt, pool, bp);
    EXPECT_TRUE(sameBytes(xt, xt_ref)) << s.str() << " BP-data+mask";

    ref.backwardWeights(s, e, x, dw_ref, pool, bp);
    direct.backwardWeights(s, e, x, dw, pool, bp);
    EXPECT_TRUE(sameBytes(dw, dw_ref)) << s.str() << " BP-weights+mask";
}

INSTANTIATE_TEST_SUITE_P(
    Table1, DirectBitForBit,
    ::testing::Range(0, static_cast<int>(std::size(kDirectSpecs))));

INSTANTIATE_TEST_SUITE_P(
    Engines, ConvProperty,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(std::string("parallel-gemm"),
                                         std::string("gemm-in-parallel"),
                                         std::string("direct"),
                                         std::string("sparse"))),
    [](const auto &info) {
        std::string name = "spec" +
                           std::to_string(std::get<0>(info.param)) + "_" +
                           std::get<1>(info.param);
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace spg
