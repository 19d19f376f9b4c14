/**
 * @file
 * Tests for the Winograd F(2x2, 3x3) engine (extension).
 */

#include <gtest/gtest.h>

#include "conv/engines.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

class WinogradSweep : public ::testing::TestWithParam<ConvSpec>
{
};

TEST_P(WinogradSweep, MatchesReference)
{
    const ConvSpec &s = GetParam();
    ThreadPool pool(2);
    Rng rng(95);
    Tensor in(Shape{2, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor ref(Shape{2, s.nf, s.outY(), s.outX()});
    Tensor got(Shape{2, s.nf, s.outY(), s.outX()});
    ReferenceEngine().forward(s, in, w, ref, pool);
    WinogradEngine().forward(s, in, w, got, pool);
    EXPECT_TRUE(allClose(got, ref, 1e-3f, 1e-3f))
        << "maxdiff=" << maxAbsDiff(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradSweep,
    ::testing::Values(
        // Even outputs (pure tiled path).
        ConvSpec{6, 6, 1, 1, 3, 3, 1, 1},
        ConvSpec{10, 10, 3, 4, 3, 3, 1, 1},
        // Odd output rows and/or columns (edge-strip path).
        ConvSpec{5, 5, 2, 2, 3, 3, 1, 1},
        ConvSpec{9, 8, 2, 3, 3, 3, 1, 1},
        ConvSpec{8, 9, 2, 3, 3, 3, 1, 1},
        // Realistic layer (Table 2 ImageNet-22K L3 shape, shrunk).
        ConvSpec{13, 13, 8, 6, 3, 3, 1, 1}),
    [](const auto &info) {
        const ConvSpec &s = info.param;
        return "n" + std::to_string(s.nx) + "x" + std::to_string(s.ny) +
               "c" + std::to_string(s.nc) + "f" + std::to_string(s.nf);
    });

TEST(Winograd, GeometryGate)
{
    WinogradEngine engine;
    EXPECT_TRUE(engine.appliesTo(ConvSpec::square(8, 2, 2, 3), 0.0));
    EXPECT_FALSE(engine.appliesTo(ConvSpec::square(8, 2, 2, 5), 0.0));
    EXPECT_FALSE(
        engine.appliesTo(ConvSpec::square(8, 2, 2, 3, 2), 0.0));
    EXPECT_TRUE(engine.supports(Phase::Forward));
    EXPECT_FALSE(engine.supports(Phase::BackwardData));
}

TEST(WinogradDeath, RejectsWrongGeometry)
{
    ConvSpec s = ConvSpec::square(8, 2, 2, 5);
    ThreadPool pool(1);
    Tensor in(Shape{1, s.nc, s.ny, s.nx});
    Tensor w(Shape{s.nf, s.nc, s.fy, s.fx});
    Tensor out(Shape{1, s.nf, s.outY(), s.outX()});
    EXPECT_DEATH(WinogradEngine().forward(s, in, w, out, pool),
                 "3x3 stride-1");
}

TEST(Winograd, RegistryIntegration)
{
    auto engine = makeEngine("winograd");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "winograd");
    // Generic engines accept any geometry by default.
    EXPECT_TRUE(
        makeEngine("gemm-in-parallel")
            ->appliesTo(ConvSpec::square(8, 2, 2, 5), 0.0));
}

} // namespace
} // namespace spg
