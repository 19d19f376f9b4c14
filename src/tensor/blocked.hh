/**
 * @file
 * NCHWc / KCRSck staging kernels of the direct convolution engine.
 *
 * The direct engine (src/conv/engine_direct) takes and returns plain
 * NCHW tensors and stages its operands, per call, into channel-blocked
 * scratch: activations as [C/c][H][W][c] per image and weights as
 * [K/c][C/c][Fy][Fx][c_in][c_out], with c = kChannelBlock chosen so
 * one channel group fills one vector register (8 floats for AVX2).
 * Partial trailing blocks are zero-padded — the pad lanes carry zero
 * weights, so they contribute exact +-0 terms and never perturb a
 * bit-for-bit comparison against the plain NCHW reference loops.
 *
 * Every kernel here converts one block, the unit the engine's staging
 * fans out over the pool.
 */

#ifndef SPG_TENSOR_BLOCKED_HH
#define SPG_TENSOR_BLOCKED_HH

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/tensor.hh"

namespace spg {

#if defined(__AVX2__)
/** In-register 8x8 float transpose: r[i][j] <- r[j][i]. The NCHW <->
 *  NCHWc staging kernels are pure 8-channel transposes of each 8-pixel
 *  strip, so this turns their strided scalar gathers into shuffles. */
inline void
transpose8x8Ps(__m256 r[8])
{
    __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}
#endif // __AVX2__

/** Channel block width used by the direct engine on this build: one
 *  AVX2 vector of floats. */
constexpr std::int64_t kChannelBlock = 8;

/** @return ceil(channels / block): number of channel blocks. */
inline std::int64_t
blockCount(std::int64_t channels, std::int64_t block = kChannelBlock)
{
    return (channels + block - 1) / block;
}

/** Shape of blocked weights [K/c][C/c][Fy][Fx][c][c], declared as
 *  {ceil(K/c), ceil(C/c), Fy, Fx*c*c} so row-major order over it is
 *  the blocked memory order. */
Shape kcrsckShape(std::int64_t nf, std::int64_t nc, std::int64_t fy,
                  std::int64_t fx, std::int64_t block = kChannelBlock);

/** Pack channel block @p cb of one image CHW -> C/c,H,W,c; the
 *  block's pad lanes are zeroed. @p src / @p dst are whole-image base
 *  pointers; @p dst holds blockCount(c) * ny * nx * block floats. */
void packImageBlockNchwc(const float *src, float *dst, std::int64_t c,
                         std::int64_t ny, std::int64_t nx,
                         std::int64_t block, std::int64_t cb);

/** Unpack channel block @p cb of one image C/c,H,W,c -> CHW (pad
 *  lanes dropped). */
void unpackImageBlockNchwc(const float *src, float *dst, std::int64_t c,
                           std::int64_t ny, std::int64_t nx,
                           std::int64_t block, std::int64_t cb);

/** Pack the (kb, cb) block of KCRS weights into KCRSck, pad lanes
 *  (channel and feature tails) zeroed. @p w / @p dst are whole-array
 *  base pointers; @p dst holds kcrsckShape(...).elements() floats. */
void packWeightBlockKcrsck(const float *w, float *dst, std::int64_t nf,
                           std::int64_t nc, std::int64_t fy,
                           std::int64_t fx, std::int64_t block,
                           std::int64_t kb, std::int64_t cb);

/** Pack channel block @p cb of KCRS weights into the BP-data gather
 *  layout [C/c][K][Fy][Fx][ci]: for a fixed input-channel block the
 *  kernel walks features and taps with one contiguous vector of
 *  input-channel lanes per tap, pad lanes zeroed. @p dst holds
 *  blockCount(nc) * nf * fy * fx * block floats. */
void packWeightBlockCfrsc(const float *w, float *dst, std::int64_t nf,
                          std::int64_t nc, std::int64_t fy,
                          std::int64_t fx, std::int64_t block,
                          std::int64_t cb);

} // namespace spg

#endif // SPG_TENSOR_BLOCKED_HH
