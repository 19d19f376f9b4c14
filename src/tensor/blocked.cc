#include "tensor/blocked.hh"

#include <algorithm>
#include <cstring>


namespace spg {

Shape
kcrsckShape(std::int64_t nf, std::int64_t nc, std::int64_t fy,
            std::int64_t fx, std::int64_t block)
{
    return Shape{blockCount(nf, block), blockCount(nc, block), fy,
                 fx * block * block};
}

void
packImageBlockNchwc(const float *src, float *dst, std::int64_t c,
                    std::int64_t ny, std::int64_t nx, std::int64_t block,
                    std::int64_t cb)
{
    const std::int64_t plane = ny * nx;
    const std::int64_t live = std::min(block, c - cb * block);
    const float *group = src + cb * block * plane;
    float *d = dst + cb * plane * block;
    std::int64_t p = 0;
#if defined(__AVX2__)
    if (block == 8) {
        for (; p + 8 <= plane; p += 8) {
            __m256 r[8];
            for (std::int64_t ci = 0; ci < 8; ++ci)
                r[ci] = ci < live
                            ? _mm256_loadu_ps(group + ci * plane + p)
                            : _mm256_setzero_ps();
            transpose8x8Ps(r);
            for (std::int64_t j = 0; j < 8; ++j)
                _mm256_storeu_ps(d + (p + j) * 8, r[j]);
        }
    }
#endif
    for (; p < plane; ++p) {
        float *dp = d + p * block;
        std::int64_t ci = 0;
        for (; ci < live; ++ci)
            dp[ci] = group[ci * plane + p];
        for (; ci < block; ++ci)
            dp[ci] = 0.0f;
    }
}

void
unpackImageBlockNchwc(const float *src, float *dst, std::int64_t c,
                      std::int64_t ny, std::int64_t nx,
                      std::int64_t block, std::int64_t cb)
{
    const std::int64_t plane = ny * nx;
    const std::int64_t live = std::min(block, c - cb * block);
    std::int64_t p = 0;
#if defined(__AVX2__)
    if (block == 8) {
        const float *s = src + cb * plane * 8;
        for (; p + 8 <= plane; p += 8) {
            __m256 r[8];
            for (std::int64_t j = 0; j < 8; ++j)
                r[j] = _mm256_loadu_ps(s + (p + j) * 8);
            transpose8x8Ps(r);
            for (std::int64_t ci = 0; ci < live; ++ci)
                _mm256_storeu_ps(dst + (cb * 8 + ci) * plane + p,
                                 r[ci]);
        }
    }
#endif
    for (std::int64_t ci = 0; ci < live; ++ci) {
        const float *s = src + cb * plane * block + ci;
        float *d = dst + (cb * block + ci) * plane;
        for (std::int64_t q = p; q < plane; ++q)
            d[q] = s[q * block];
    }
}

void
packWeightBlockKcrsck(const float *w, float *dst, std::int64_t nf,
                      std::int64_t nc, std::int64_t fy, std::int64_t fx,
                      std::int64_t block, std::int64_t kb,
                      std::int64_t cb)
{
    const std::int64_t taps = fy * fx;
    const std::int64_t cbn = blockCount(nc, block);
    const std::int64_t klive = std::min(block, nf - kb * block);
    const std::int64_t clive = std::min(block, nc - cb * block);
    float *dblk = dst + (kb * cbn + cb) * taps * block * block;
    std::memset(dblk, 0,
                static_cast<std::size_t>(taps * block * block) *
                    sizeof(float));
    for (std::int64_t ko = 0; ko < klive; ++ko) {
        for (std::int64_t ci = 0; ci < clive; ++ci) {
            const float *s =
                w + ((kb * block + ko) * nc + cb * block + ci) * taps;
            float *d = dblk + ci * block + ko;
            for (std::int64_t t = 0; t < taps; ++t)
                d[t * block * block] = s[t];
        }
    }
}

void
packWeightBlockCfrsc(const float *w, float *dst, std::int64_t nf,
                     std::int64_t nc, std::int64_t fy, std::int64_t fx,
                     std::int64_t block, std::int64_t cb)
{
    const std::int64_t taps = fy * fx;
    const std::int64_t clive = std::min(block, nc - cb * block);
    for (std::int64_t f = 0; f < nf; ++f) {
        float *d = dst + (cb * nf + f) * taps * block;
        for (std::int64_t t = 0; t < taps; ++t) {
            std::int64_t ci = 0;
            for (; ci < clive; ++ci)
                d[ci] = w[(f * nc + cb * block + ci) * taps + t];
            for (; ci < block; ++ci)
                d[ci] = 0.0f;
            d += block;
        }
    }
}

} // namespace spg
