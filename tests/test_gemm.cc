/**
 * @file
 * Unit and property tests for the from-scratch SGEMM.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.hh"
#include "tensor/tensor.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"

namespace spg {
namespace {

/** Build a random m x n row-major matrix. */
Tensor
randomMatrix(std::int64_t m, std::int64_t n, std::uint64_t seed)
{
    Tensor t(Shape{m, n});
    Rng rng(seed);
    t.fillUniform(rng, -1.0f, 1.0f);
    return t;
}

void
expectGemmMatchesNaive(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                       std::int64_t k, float alpha, float beta,
                       bool parallel)
{
    std::int64_t a_rows = ta == Trans::No ? m : k;
    std::int64_t a_cols = ta == Trans::No ? k : m;
    std::int64_t b_rows = tb == Trans::No ? k : n;
    std::int64_t b_cols = tb == Trans::No ? n : k;

    Tensor a = randomMatrix(a_rows, a_cols, 1 + m * 7 + n * 13 + k * 31);
    Tensor b = randomMatrix(b_rows, b_cols, 2 + m * 3 + n * 5 + k * 11);
    Tensor c_ref = randomMatrix(m, n, 42);
    Tensor c_opt = c_ref.clone();

    gemmNaive(ta, tb, m, n, k, alpha, a.data(), a_cols, b.data(), b_cols,
              beta, c_ref.data(), n);
    if (parallel) {
        ThreadPool pool(4);
        parallelGemm(pool, ta, tb, m, n, k, alpha, a.data(), a_cols,
                     b.data(), b_cols, beta, c_opt.data(), n);
    } else {
        sgemm(ta, tb, m, n, k, alpha, a.data(), a_cols, b.data(), b_cols,
              beta, c_opt.data(), n);
    }

    float tol = 1e-3f * static_cast<float>(k) / 64.0f + 1e-4f;
    EXPECT_LT(maxAbsDiff(c_ref, c_opt), tol)
        << "m=" << m << " n=" << n << " k=" << k
        << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes)
        << " alpha=" << alpha << " beta=" << beta
        << " parallel=" << parallel;
}

TEST(Gemm, TinyIdentity)
{
    // C = I * B must equal B exactly.
    std::int64_t n = 8;
    Tensor eye(Shape{n, n});
    for (std::int64_t i = 0; i < n; ++i)
        eye.at(i, i) = 1.0f;
    Tensor b = randomMatrix(n, n, 3);
    Tensor c(Shape{n, n});
    sgemm(Trans::No, Trans::No, n, n, n, 1.0f, eye.data(), n, b.data(), n,
          0.0f, c.data(), n);
    EXPECT_EQ(maxAbsDiff(b, c), 0.0f);
}

TEST(Gemm, SingleElement)
{
    float a = 3.0f, b = -2.0f, c = 10.0f;
    sgemm(Trans::No, Trans::No, 1, 1, 1, 2.0f, &a, 1, &b, 1, 0.5f, &c, 1);
    EXPECT_FLOAT_EQ(c, 2.0f * 3.0f * -2.0f + 0.5f * 10.0f);
}

TEST(Gemm, ZeroKIsScaling)
{
    Tensor c = randomMatrix(5, 7, 9);
    Tensor expected = c.clone();
    for (std::int64_t i = 0; i < expected.size(); ++i)
        expected[i] *= 0.25f;
    sgemm(Trans::No, Trans::No, 5, 7, 0, 1.0f, nullptr, 1, nullptr, 7,
          0.25f, c.data(), 7);
    EXPECT_LT(maxAbsDiff(c, expected), 1e-6f);
}

TEST(Gemm, BetaZeroOverwritesNaN)
{
    // beta == 0 must not propagate pre-existing NaN/garbage in C.
    std::int64_t n = 16;
    Tensor a = randomMatrix(n, n, 4);
    Tensor b = randomMatrix(n, n, 5);
    Tensor c(Shape{n, n});
    c.fill(std::numeric_limits<float>::quiet_NaN());
    sgemm(Trans::No, Trans::No, n, n, n, 1.0f, a.data(), n, b.data(), n,
          0.0f, c.data(), n);
    for (std::int64_t i = 0; i < c.size(); ++i)
        EXPECT_FALSE(std::isnan(c[i])) << "NaN leaked at " << i;
}

TEST(Gemm, StridedOutput)
{
    // C with ldc > n: untouched columns must stay intact.
    std::int64_t m = 9, n = 5, k = 7, ldc = 11;
    Tensor a = randomMatrix(m, k, 6);
    Tensor b = randomMatrix(k, n, 7);
    Tensor c_ref = randomMatrix(m, ldc, 8);
    Tensor c_opt = c_ref.clone();
    gemmNaive(Trans::No, Trans::No, m, n, k, 1.0f, a.data(), k, b.data(),
              n, 1.0f, c_ref.data(), ldc);
    sgemm(Trans::No, Trans::No, m, n, k, 1.0f, a.data(), k, b.data(), n,
          1.0f, c_opt.data(), ldc);
    EXPECT_LT(maxAbsDiff(c_ref, c_opt), 1e-3f);
}

struct GemmCase
{
    std::int64_t m, n, k;
};

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<GemmCase, int, int, bool>>
{
};

TEST_P(GemmShapes, MatchesNaive)
{
    auto [shape, ta_i, tb_i, parallel] = GetParam();
    Trans ta = ta_i ? Trans::Yes : Trans::No;
    Trans tb = tb_i ? Trans::Yes : Trans::No;
    expectGemmMatchesNaive(ta, tb, shape.m, shape.n, shape.k, 1.0f, 0.0f,
                           parallel);
    expectGemmMatchesNaive(ta, tb, shape.m, shape.n, shape.k, 0.5f, 1.0f,
                           parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Combine(
        ::testing::Values(GemmCase{1, 1, 1}, GemmCase{2, 3, 4},
                          GemmCase{6, 16, 8}, GemmCase{7, 17, 9},
                          GemmCase{13, 1, 5}, GemmCase{1, 33, 5},
                          GemmCase{48, 64, 32}, GemmCase{65, 129, 67},
                          GemmCase{128, 128, 300}, GemmCase{121, 257, 129},
                          GemmCase{5, 300, 2}, GemmCase{300, 5, 2},
                          GemmCase{125, 2053, 259}),
        ::testing::Values(0, 1), ::testing::Values(0, 1),
        ::testing::Values(false, true)),
    [](const auto &info) {
        const GemmCase &shape = std::get<0>(info.param);
        std::string name = "m" + std::to_string(shape.m) + "n" +
                           std::to_string(shape.n) + "k" +
                           std::to_string(shape.k);
        name += std::get<1>(info.param) ? "_tA" : "";
        name += std::get<2>(info.param) ? "_tB" : "";
        name += std::get<3>(info.param) ? "_par" : "_seq";
        return name;
    });

/** The transpose of a row-major matrix, as a row-major matrix. */
Tensor
transposed(const Tensor &x)
{
    std::int64_t rows = x.shape()[0], cols = x.shape()[1];
    Tensor t(Shape{cols, rows});
    for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j)
            t.at(j, i) = x.at(i, j);
    return t;
}

/** x with every row padded by `pad` NaN columns (leading dim widened). */
Tensor
padded(const Tensor &x, std::int64_t pad)
{
    std::int64_t rows = x.shape()[0], cols = x.shape()[1];
    Tensor p(Shape{rows, cols + pad});
    p.fill(std::numeric_limits<float>::quiet_NaN());
    for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j)
            p.at(i, j) = x.at(i, j);
    return p;
}

/** Bit-for-bit equality; unlike maxAbsDiff, a NaN anywhere fails it. */
bool
sameBits(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.size()) * sizeof(float)) ==
               0;
}

/**
 * sgemm packs op(A) (alpha baked in) and op(B) into micro-panels on
 * every call, so the panels, and with them every output bit, must not
 * depend on how the caller stores the operands. PackedGemm holds the
 * result on contiguous operands against the same operands handed in
 * unpacked layouts: rows padded past their width, stored in the other
 * order behind the opposite Trans flag, and cut into the row or column
 * slabs parallelGemm gives its workers. Sizes are deliberately odd:
 * none a multiple of kGemmMr/kGemmNr/kGemmKc, plus shapes straddling
 * the kMc/kKc/kNc block boundaries.
 */
struct PackedCase
{
    std::int64_t m, n, k;
};

const PackedCase kPackedCases[] = {
    {1, 1, 1},     {5, 7, 3},      {7, 17, 9},    {13, 31, 29},
    {6, 32, 256},  {121, 257, 129}, {125, 2053, 259},
};

class PackedGemm
    : public ::testing::TestWithParam<std::tuple<int, int, int, float>>
{
  protected:
    PackedCase shape() const
    {
        return kPackedCases[std::get<0>(GetParam())];
    }
    Trans ta() const
    {
        return std::get<1>(GetParam()) ? Trans::Yes : Trans::No;
    }
    Trans tb() const
    {
        return std::get<2>(GetParam()) ? Trans::Yes : Trans::No;
    }
    float beta() const { return std::get<3>(GetParam()); }
};

Trans
flipped(Trans t)
{
    return t == Trans::No ? Trans::Yes : Trans::No;
}

TEST_P(PackedGemm, MatchesUnpackedBitForBitAndNaive)
{
    auto [m, n, k] = shape();
    float alpha = 0.75f;
    std::int64_t lda = ta() == Trans::No ? k : m;
    std::int64_t ldb = tb() == Trans::No ? n : k;
    Tensor a = randomMatrix(ta() == Trans::No ? m : k, lda, 21 + m);
    Tensor b = randomMatrix(tb() == Trans::No ? k : n, ldb, 22 + n);
    Tensor c0 = randomMatrix(m, n, 23 + k);

    Tensor c_plain = c0.clone();
    sgemm(ta(), tb(), m, n, k, alpha, a.data(), lda, b.data(), ldb,
          beta(), c_plain.data(), n);

    Tensor c_naive = c0.clone();
    gemmNaive(ta(), tb(), m, n, k, alpha, a.data(), lda, b.data(), ldb,
              beta(), c_naive.data(), n);

    // Padding lanes are NaN: a pack that read past a row would poison C.
    const std::int64_t pad = 5;
    Tensor a_pad = padded(a, pad);
    Tensor b_pad = padded(b, pad);
    Tensor c_pad = c0.clone();
    sgemm(ta(), tb(), m, n, k, alpha, a_pad.data(), lda + pad,
          b_pad.data(), ldb + pad, beta(), c_pad.data(), n);
    EXPECT_TRUE(sameBits(c_plain, c_pad)) << "padded rows";

    Tensor a_t = transposed(a);
    Tensor b_t = transposed(b);
    Tensor c_t = c0.clone();
    sgemm(flipped(ta()), flipped(tb()), m, n, k, alpha, a_t.data(),
          a.shape()[0], b_t.data(), b.shape()[0], beta(), c_t.data(), n);
    EXPECT_TRUE(sameBits(c_plain, c_t)) << "other storage order";

    ThreadPool pool(3);
    Tensor c_par = c0.clone();
    parallelGemm(pool, ta(), tb(), m, n, k, alpha, a.data(), lda,
                 b.data(), ldb, beta(), c_par.data(), n);
    EXPECT_TRUE(sameBits(c_plain, c_par)) << "parallel slabs";

    float tol = 1e-3f * static_cast<float>(k) / 64.0f + 1e-4f;
    EXPECT_LT(maxAbsDiff(c_naive, c_plain), tol) << "vs naive";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedGemm,
    ::testing::Combine(
        ::testing::Range(0,
                         static_cast<int>(std::size(kPackedCases))),
        ::testing::Values(0, 1), ::testing::Values(0, 1),
        ::testing::Values(0.0f, 1.0f, 0.5f)),
    [](const auto &info) {
        const PackedCase &shape = kPackedCases[std::get<0>(info.param)];
        std::string name = "m" + std::to_string(shape.m) + "n" +
                           std::to_string(shape.n) + "k" +
                           std::to_string(shape.k);
        name += std::get<1>(info.param) ? "_tA" : "";
        name += std::get<2>(info.param) ? "_tB" : "";
        float beta = std::get<3>(info.param);
        name += beta == 0.0f ? "_b0" : beta == 1.0f ? "_b1" : "_bhalf";
        return name;
    });

TEST(Gemm, TransCombosOddSizesBetaSweep)
{
    // All four Trans combinations x sizes with m, n, k deliberately
    // NOT multiples of kGemmMr/kGemmNr/kGemmKc x beta in {0, 1, 0.5},
    // sequential and parallel, against the naive oracle.
    const GemmCase odd[] = {{7, 19, 5}, {11, 37, 13}, {5, 33, 257}};
    for (const GemmCase &shape : odd)
        for (Trans ta : {Trans::No, Trans::Yes})
            for (Trans tb : {Trans::No, Trans::Yes})
                for (float beta : {0.0f, 1.0f, 0.5f})
                    for (bool parallel : {false, true})
                        expectGemmMatchesNaive(ta, tb, shape.m, shape.n,
                                               shape.k, 1.0f, beta,
                                               parallel);
}

TEST(Gemm, LargeBlockedCrossesAllBlockBoundaries)
{
    // Exercise kMc/kKc/kNc boundaries: sizes straddling 120/256/2048.
    expectGemmMatchesNaive(Trans::No, Trans::No, 121, 2049, 257, 1.0f,
                           0.0f, false);
}

TEST(Gemm, FlopsHelper)
{
    EXPECT_EQ(gemmFlops(2, 3, 4), 2 * 2 * 3 * 4);
    EXPECT_EQ(gemmFlops(0, 3, 4), 0);
}

TEST(ParallelGemm, ManyThreadsSmallMatrix)
{
    // More threads than rows must still be correct.
    ThreadPool pool(8);
    std::int64_t m = 3, n = 3, k = 200;
    Tensor a = randomMatrix(m, k, 10);
    Tensor b = randomMatrix(k, n, 11);
    Tensor c_ref(Shape{m, n});
    Tensor c_opt(Shape{m, n});
    gemmNaive(Trans::No, Trans::No, m, n, k, 1.0f, a.data(), k, b.data(),
              n, 0.0f, c_ref.data(), n);
    parallelGemm(pool, Trans::No, Trans::No, m, n, k, 1.0f, a.data(), k,
                 b.data(), n, 0.0f, c_opt.data(), n);
    EXPECT_LT(maxAbsDiff(c_ref, c_opt), 1e-3f);
}

} // namespace
} // namespace spg
