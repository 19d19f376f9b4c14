/**
 * @file
 * Deterministic minibatch reduction for BP-weights.
 *
 * The image-parallel engines compute one weight gradient per image and
 * sum them over the batch. Accumulating into one slab per WORKER makes
 * the float summation order depend on which images work stealing
 * handed each worker, so the result changes from run to run and with
 * the pool size. BatchReducer instead splits the batch into fixed
 * chunks whose boundaries depend on the batch and gradient sizes
 * alone: each chunk accumulates its images in order into its own slab,
 * workers claim chunks dynamically (so load balance is kept), and the
 * slabs are summed in chunk order. The result is a function of the
 * inputs only.
 *
 * Chunk count trades balance for slab traffic. One image per chunk
 * balances like per-image claims, but every chunk adds a slab to zero
 * and sum, which dominates when the gradient is large next to one
 * image's work (many weights, few output pixels). So the count is the
 * batch size, capped at kMaxChunks and at kSlabBudget floats of slabs
 * (but never below kMinChunks).
 */

#ifndef SPG_CONV_BATCH_REDUCE_HH
#define SPG_CONV_BATCH_REDUCE_HH

#include <cstdint>

#include "threading/thread_pool.hh"
#include "util/aligned.hh"

namespace spg {

/** Chunk-indexed per-image gradient reduction with reusable slabs. */
class BatchReducer
{
  public:
    /** Chunk-count bounds and the slab budget (floats) between them. */
    static constexpr std::int64_t kMaxChunks = 16;
    static constexpr std::int64_t kMinChunks = 4;
    static constexpr std::int64_t kSlabBudget = 1 << 19;
    /** Gradients at least this long sum their slabs pool-parallel. */
    static constexpr std::int64_t kParallelSumElems = 1 << 14;

    /**
     * dst[0, count) = the sum of every image's contribution.
     *
     * @param pool Worker pool; chunks are claimed dynamically.
     * @param batch Number of images.
     * @param count Elements per gradient.
     * @param image fn(b, slab): add image b's gradient into slab
     *        (count floats, zeroed before the chunk's first image).
     *        Images of one chunk run in ascending order on one worker.
     * @param dst Output gradient, overwritten.
     */
    void run(ThreadPool &pool, std::int64_t batch, std::int64_t count,
             FunctionRef<void(std::int64_t, float *)> image, float *dst);

  private:
    /** Grown on demand. Calls on one reducer must not overlap
     *  (engines own one each, driven by one layer or tuner at a time). */
    AlignedBuffer<float> slabs_;
};

} // namespace spg

#endif // SPG_CONV_BATCH_REDUCE_HH
