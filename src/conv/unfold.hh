/**
 * @file
 * Input unfolding (im2col) and folding (col2im) — paper §2.3 step 1.
 *
 * The unfolded matrix U' is laid out TRANSPOSED relative to the
 * paper's Fig. 2b: each COLUMN of U' is one flattened kernel
 * application, so forward propagation is the plain (no-transpose) MM
 *
 *     O[Nf x OyOx] = W[Nf x NcFyFx] * U'[NcFyFx x OyOx]
 *
 * which matches the paper's O = W * U^T (Fig. 2c) without needing a
 * transposed GEMM. The backward passes then become
 *
 *     U'grad = W^T * EO           (then col2im-fold into EI)
 *     dW    += EO * U'^T
 *
 * expressed through the Trans flags of blas/gemm.hh.
 */

#ifndef SPG_CONV_UNFOLD_HH
#define SPG_CONV_UNFOLD_HH

#include <cstdint>

#include "conv/conv_spec.hh"

namespace spg {

/**
 * Unfold one image: in [Nc][Ny][Nx] -> u [Nc*Fy*Fx][Oy*Ox].
 * Row index is (c*Fy + ky)*Fx + kx; column index is y*Ox + x.
 *
 * @param spec Layer geometry.
 * @param in Input image.
 * @param u Destination, overwritten; size gemmK() x gemmN().
 */
void unfoldImage(const ConvSpec &spec, const float *in, float *u);

/**
 * Fold (col2im): accumulate the unfolded-gradient matrix back into the
 * input-error image. ei must be zeroed by the caller first.
 *
 * @param spec Layer geometry.
 * @param u Unfolded gradient [Nc*Fy*Fx][Oy*Ox].
 * @param ei Input errors [Nc][Ny][Nx], accumulated into.
 */
void foldImageAccumulate(const ConvSpec &spec, const float *u, float *ei);

} // namespace spg

#endif // SPG_CONV_UNFOLD_HH
