/**
 * @file
 * Tests for the im2col unfold / col2im fold machinery (paper §2.3).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "conv/unfold.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace spg {
namespace {

class UnfoldGeometries
    : public ::testing::TestWithParam<ConvSpec>
{
};

TEST_P(UnfoldGeometries, ColumnsArePatches)
{
    const ConvSpec &spec = GetParam();
    Tensor in(Shape{spec.nc, spec.ny, spec.nx});
    std::iota(in.data(), in.data() + in.size(), 0.0f);
    Tensor u(Shape{spec.gemmK(), spec.gemmN()});
    unfoldImage(spec, in.data(), u.data());

    // Every (row, col) of U must equal the patch element it encodes:
    // row = (c*Fy + ky)*Fx + kx, col = y*Ox + x.
    std::int64_t ox = spec.outX();
    for (std::int64_t c = 0; c < spec.nc; ++c)
        for (std::int64_t ky = 0; ky < spec.fy; ++ky)
            for (std::int64_t kx = 0; kx < spec.fx; ++kx)
                for (std::int64_t y = 0; y < spec.outY(); ++y)
                    for (std::int64_t x = 0; x < ox; ++x) {
                        std::int64_t row =
                            (c * spec.fy + ky) * spec.fx + kx;
                        std::int64_t col = y * ox + x;
                        float want = in.at(c, y * spec.sy + ky,
                                           x * spec.sx + kx);
                        ASSERT_EQ(u.at(row, col), want)
                            << "c=" << c << " ky=" << ky << " kx=" << kx
                            << " y=" << y << " x=" << x;
                    }
}

TEST_P(UnfoldGeometries, FoldIsAdjointOfUnfold)
{
    // <unfold(x), u> == <x, fold(u)> for all x, u: fold must be the
    // exact transpose of unfold (this is what makes the BP-data GEMM
    // path correct).
    const ConvSpec &spec = GetParam();
    Rng rng(31);
    Tensor x(Shape{spec.nc, spec.ny, spec.nx});
    Tensor u(Shape{spec.gemmK(), spec.gemmN()});
    x.fillUniform(rng);
    u.fillUniform(rng);

    Tensor ux(Shape{spec.gemmK(), spec.gemmN()});
    unfoldImage(spec, x.data(), ux.data());
    Tensor fu(Shape{spec.nc, spec.ny, spec.nx});
    fu.zero();
    foldImageAccumulate(spec, u.data(), fu.data());

    double lhs = 0, rhs = 0;
    for (std::int64_t i = 0; i < ux.size(); ++i)
        lhs += static_cast<double>(ux[i]) * u[i];
    for (std::int64_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * fu[i];
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

TEST_P(UnfoldGeometries, FoldAccumulates)
{
    const ConvSpec &spec = GetParam();
    Rng rng(32);
    Tensor u(Shape{spec.gemmK(), spec.gemmN()});
    u.fillUniform(rng);
    Tensor once(Shape{spec.nc, spec.ny, spec.nx});
    Tensor twice(Shape{spec.nc, spec.ny, spec.nx});
    foldImageAccumulate(spec, u.data(), once.data());
    foldImageAccumulate(spec, u.data(), twice.data());
    foldImageAccumulate(spec, u.data(), twice.data());
    for (std::int64_t i = 0; i < once.size(); ++i)
        ASSERT_NEAR(twice[i], 2 * once[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, UnfoldGeometries,
    ::testing::Values(ConvSpec{5, 5, 1, 1, 2, 2, 1, 1},
                      ConvSpec{8, 7, 3, 2, 3, 2, 1, 1},
                      ConvSpec{9, 9, 2, 2, 3, 3, 2, 2},
                      ConvSpec{12, 12, 2, 3, 5, 5, 3, 3},
                      ConvSpec{6, 6, 4, 2, 1, 1, 1, 1},
                      ConvSpec{10, 8, 1, 2, 4, 3, 2, 1}),
    [](const auto &info) {
        const ConvSpec &s = info.param;
        return "n" + std::to_string(s.nx) + "x" + std::to_string(s.ny) +
               "c" + std::to_string(s.nc) + "k" + std::to_string(s.fx) +
               "x" + std::to_string(s.fy) + "s" + std::to_string(s.sx) +
               std::to_string(s.sy);
    });

TEST(Unfold, GemmDimensionsMatchSpec)
{
    ConvSpec spec{10, 9, 3, 7, 3, 2, 1, 1};
    EXPECT_EQ(spec.gemmM(), 7);
    EXPECT_EQ(spec.gemmK(), 3 * 2 * 3);
    EXPECT_EQ(spec.gemmN(), spec.outY() * spec.outX());
    EXPECT_EQ(spec.unfoldedElems(), spec.gemmK() * spec.gemmN());
}

} // namespace
} // namespace spg
