/**
 * @file
 * Tests for the weight-sparsity FP engine: the register-tiled
 * "sparse-weights-direct" engine and its once-per-weight-version CSR
 * plan cache.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "conv/engines.hh"
#include "conv/weight_plans.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"
#include "util/timer.hh"

namespace spg {
namespace {

class SparseWeightsSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
  protected:
    static const ConvSpec &spec()
    {
        static const ConvSpec specs[] = {
            ConvSpec{10, 10, 2, 3, 3, 3, 1, 1},
            ConvSpec{12, 9, 3, 5, 4, 2, 1, 1},
            ConvSpec{15, 15, 2, 4, 3, 3, 2, 2},
            ConvSpec{28, 28, 1, 20, 5, 5, 1, 1},
        };
        return specs[std::get<0>(GetParam())];
    }
};

TEST_P(SparseWeightsSweep, MatchesReference)
{
    // Through the registry, on a 3-worker pool with a poisoned output:
    // the engine the tuner deploys must overwrite every pixel.
    const ConvSpec &s = spec();
    double w_sparsity = std::get<1>(GetParam());
    ThreadPool pool(3);
    Rng rng(700 + std::get<0>(GetParam()));

    Tensor in(Shape{3, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    w.sparsify(rng, w_sparsity);

    Tensor ref(Shape{3, s.nf, s.outY(), s.outX()});
    Tensor got(Shape{3, s.nf, s.outY(), s.outX()});
    got.fill(-9.0f);
    ReferenceEngine().forward(s, in, w, ref, pool);
    auto engine = makeEngine("sparse-weights-direct");
    ASSERT_NE(engine, nullptr);
    engine->forward(s, in, w, got, pool);
    EXPECT_TRUE(allClose(got, ref, 1e-3f, 1e-4f))
        << "maxdiff=" << maxAbsDiff(got, ref);
    WeightPlanCache::global().invalidate(w.data());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseWeightsSweep,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(0.0, 0.5, 0.9, 1.0)),
    [](const auto &info) {
        return "spec" + std::to_string(std::get<0>(info.param)) + "_s" +
               std::to_string(static_cast<int>(
                   std::get<1>(info.param) * 100));
    });

TEST_P(SparseWeightsSweep, DirectIsBitForBitWithReference)
{
    // The register-tiled engine accumulates every output pixel in
    // double over the surviving taps in ascending (c,ky,kx) order and
    // rounds once — exactly the reference loop with the zero terms
    // removed, so equality is exact at EVERY sparsity.
    const ConvSpec &s = spec();
    double w_sparsity = std::get<1>(GetParam());
    ThreadPool pool(2);
    Rng rng(900 + std::get<0>(GetParam()));

    Tensor in(Shape{2, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng, -1.0f, 1.0f);
    w.fillUniform(rng, -0.5f, 0.5f);
    w.sparsify(rng, w_sparsity);

    Tensor ref(Shape{2, s.nf, s.outY(), s.outX()});
    Tensor got(Shape{2, s.nf, s.outY(), s.outX()});
    got.fill(42.0f);
    ReferenceEngine().forward(s, in, w, ref, pool);
    SparseDirectFpEngine().forward(s, in, w, got, pool);
    EXPECT_EQ(maxAbsDiff(got, ref), 0.0f);
}

TEST(SparseDirect, FusedReluMaskIsBitForBit)
{
    // Fused epilogue path: the engine applies ReLU + mask per output
    // row right after writing it; results must match the reference
    // output clamped the same way, with an identical byte mask.
    ConvSpec s{13, 11, 3, 6, 3, 3, 1, 1};
    ThreadPool pool(2);
    Rng rng(17);
    Tensor in(Shape{2, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng, -1.0f, 1.0f);
    w.fillUniform(rng, -0.5f, 0.5f);
    w.sparsify(rng, 0.7);

    Tensor ref(Shape{2, s.nf, s.outY(), s.outX()});
    ReferenceEngine().forward(s, in, w, ref, pool);

    Tensor got(Shape{2, s.nf, s.outY(), s.outX()});
    std::vector<std::uint8_t> mask(
        static_cast<std::size_t>(got.size()), 2);
    Epilogue epilogue{Epilogue::Kind::ReluMask, mask.data()};
    SparseDirectFpEngine().forward(s, in, w, got, pool, epilogue);

    const float *r = ref.data();
    const float *g = got.data();
    for (std::int64_t i = 0; i < ref.size(); ++i) {
        float clamped = r[i] > 0.0f ? r[i] : 0.0f;
        ASSERT_EQ(g[i], clamped) << "at " << i;
        ASSERT_EQ(mask[static_cast<std::size_t>(i)],
                  r[i] > 0.0f ? 1 : 0)
            << "at " << i;
    }
}

TEST(SparseDirect, StridedGeometryIsBitForBit)
{
    ConvSpec s{21, 17, 2, 5, 3, 4, 2, 3};
    ThreadPool pool(2);
    Rng rng(23);
    Tensor in(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng, -1.0f, 1.0f);
    w.fillUniform(rng, -0.5f, 0.5f);
    w.sparsify(rng, 0.6);

    Tensor ref(Shape{1, s.nf, s.outY(), s.outX()});
    Tensor got(Shape{1, s.nf, s.outY(), s.outX()});
    ReferenceEngine().forward(s, in, w, ref, pool);
    SparseDirectFpEngine().forward(s, in, w, got, pool);
    EXPECT_EQ(maxAbsDiff(got, ref), 0.0f);
}

/** @return CSR-weight encode count delta across @p fn. */
template <typename Fn>
std::int64_t
encodesDuring(Fn &&fn)
{
    auto before = WeightPlanCache::global().stats();
    fn();
    auto after = WeightPlanCache::global().stats();
    return after.encodes - before.encodes;
}

TEST(WeightPlanCacheTest, EncodesOncePerWeightVersion)
{
    // Regression for the per-call re-encode bug: repeated forwards on
    // the same weight version must reuse the cached CSR plan; only a
    // weight update (invalidate or changed bytes) re-encodes.
    ConvSpec s{16, 16, 2, 4, 3, 3, 1, 1};
    ThreadPool pool(1);
    Rng rng(31);
    Tensor in(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    w.sparsify(rng, 0.5);
    Tensor out(Shape{1, s.nf, s.outY(), s.outX()});

    auto engine = makeEngine("sparse-weights-direct");
    ASSERT_NE(engine, nullptr);
    WeightPlanCache::global().invalidate(w.data());

    EXPECT_EQ(encodesDuring([&] {
                  for (int i = 0; i < 4; ++i)
                      engine->forward(s, in, w, out, pool);
              }),
              1);

    // A weight update invalidates the plan: exactly one re-encode.
    w.data()[0] += 1.0f;
    WeightPlanCache::global().invalidate(w.data());
    EXPECT_EQ(encodesDuring([&] {
                  engine->forward(s, in, w, out, pool);
                  engine->forward(s, in, w, out, pool);
              }),
              1);

    // Changed bytes are caught by the fingerprint even without an
    // explicit invalidate.
    w.data()[1] += 1.0f;
    EXPECT_EQ(encodesDuring([&] {
                  engine->forward(s, in, w, out, pool);
              }),
              1);
    WeightPlanCache::global().invalidate(w.data());
}

TEST(SparseWeights, AllZeroWeightsGiveZeroOutput)
{
    // Unit-stride and strided rows: no surviving tap means every pixel
    // is written as an exact zero.
    for (ConvSpec s : {ConvSpec{8, 8, 2, 3, 3, 3, 1, 1},
                       ConvSpec{9, 9, 2, 3, 3, 3, 2, 2}}) {
        ThreadPool pool(1);
        Rng rng(1);
        Tensor in(Shape{1, s.nc, s.ny, s.nx});
        in.fillUniform(rng);
        Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});  // zeros
        Tensor out(Shape{1, s.nf, s.outY(), s.outX()});
        out.fill(7.0f);
        SparseDirectFpEngine().forward(s, in, w, out, pool);
        EXPECT_EQ(out.maxAbs(), 0.0f) << s.str();
        WeightPlanCache::global().invalidate(w.data());
    }
}

TEST(SparseWeights, RegistryIntegration)
{
    auto engine = makeEngine("sparse-weights-direct");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "sparse-weights-direct");
    EXPECT_TRUE(engine->supports(Phase::Forward));
    EXPECT_FALSE(engine->supports(Phase::BackwardData));
    EXPECT_FALSE(engine->supports(Phase::BackwardWeights));
    // A registry member, a tuner candidate only on pruned layers.
    int in_registry = 0;
    for (const auto &e : makeEngines())
        in_registry += e->name() == engine->name();
    EXPECT_EQ(in_registry, 1);
    const ConvSpec s{8, 8, 2, 3, 5, 5, 1, 1};
    EXPECT_FALSE(engine->appliesTo(s, 0.0));
    EXPECT_TRUE(engine->appliesTo(s, 0.3));
}

TEST(SparseWeights, FasterWithPrunedWeights)
{
    // Eliding 95% of the taps must reduce runtime substantially
    // (coarse 1.5x bound to stay robust on loaded machines).
    ConvSpec s{64, 64, 8, 32, 5, 5, 1, 1};
    ThreadPool pool(1);
    Rng rng(2);
    Tensor in(Shape{2, s.nc, s.ny, s.nx});
    in.fillUniform(rng);
    Tensor dense_w(Shape{s.nf, s.nc, s.fy, s.fx});
    dense_w.fillUniform(rng);
    Tensor pruned_w = dense_w.clone();
    Rng prng(3);
    pruned_w.sparsify(prng, 0.95);
    Tensor out(Shape{2, s.nf, s.outY(), s.outX()});

    SparseDirectFpEngine engine;
    auto time_of = [&](const Tensor &w) {
        engine.forward(s, in, w, out, pool);  // warm-up
        Stopwatch sw;
        for (int i = 0; i < 3; ++i)
            engine.forward(s, in, w, out, pool);
        return sw.seconds();
    };
    double t_dense = time_of(dense_w);
    double t_pruned = time_of(pruned_w);
    EXPECT_LT(t_pruned, t_dense / 1.5);
}

} // namespace
} // namespace spg
