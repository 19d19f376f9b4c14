/**
 * @file
 * Data-layout transformations used by the spg-CNN kernels.
 *
 * The sparse BP kernel (paper §4.2) vectorizes along input channels and
 * therefore needs the weights and outputs channel-fastest and the error
 * gradients feature-fastest. All transforms here are out-of-place,
 * and each has an exact inverse so the engines can restore the
 * canonical [channel][y][x] layout after computing.
 */

#ifndef SPG_TENSOR_LAYOUT_HH
#define SPG_TENSOR_LAYOUT_HH

#include <array>
#include <cstdint>

#include "tensor/tensor.hh"

namespace spg {

/**
 * Transpose a row-major rows x cols matrix into dst (cols x rows).
 * src and dst must not alias.
 */
void transpose2d(const float *src, std::int64_t rows, std::int64_t cols,
                 float *dst);

/**
 * General rank-4 permutation: dst[perm applied] = src.
 *
 * @param src Source data, row-major over src_shape.
 * @param src_shape Extents of the four source dimensions.
 * @param perm perm[i] gives the source dimension that becomes
 *             destination dimension i.
 * @param dst Destination, row-major over the permuted extents.
 */
void permute4(const float *src, const std::array<std::int64_t, 4> &src_shape,
              const std::array<int, 4> &perm, float *dst);

/**
 * [C][H][W] -> [H][W][C]: make the channel dimension fastest-varying.
 * Used for the dense operand and output of the sparse BP kernel.
 */
void chwToHwc(const float *src, std::int64_t c, std::int64_t h,
              std::int64_t w, float *dst);

/** [H][W][C] -> [C][H][W]: inverse of chwToHwc. */
void hwcToChw(const float *src, std::int64_t h, std::int64_t w,
              std::int64_t c, float *dst);

/**
 * Weight re-layout for the sparse BP kernel: [F][C][Ky][Kx] ->
 * [F][Ky][pitch]. Row (f, ky) holds the fx * nc weights of one kernel
 * row in (kx, c) order, channel fastest, at r = kx * nc + c — the
 * order of the (x, c) floats one output pixel touches in a
 * channel-fastest input row — and zeros at r in [fx * nc, pitch).
 *
 * @param pitch Row length, >= fx * nc.
 */
void weightsToKernelRows(const float *src, std::int64_t nf,
                         std::int64_t nc, std::int64_t fy,
                         std::int64_t fx, std::int64_t pitch, float *dst);

/** Inverse of weightsToKernelRows; the pad lanes are dropped. */
void weightsFromKernelRows(const float *src, std::int64_t nf,
                           std::int64_t nc, std::int64_t fy,
                           std::int64_t fx, std::int64_t pitch,
                           float *dst);

} // namespace spg

#endif // SPG_TENSOR_LAYOUT_HH
