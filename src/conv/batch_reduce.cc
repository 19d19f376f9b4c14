#include "conv/batch_reduce.hh"

#include <algorithm>
#include <cstring>

#include "sparse/sparse_mm.hh"

namespace spg {

void
BatchReducer::run(ThreadPool &pool, std::int64_t batch, std::int64_t count,
                  FunctionRef<void(std::int64_t, float *)> image, float *dst)
{
    std::int64_t chunks = std::min(
        {batch, kMaxChunks,
         std::max(kMinChunks, kSlabBudget / std::max<std::int64_t>(count, 1))});
    std::size_t total = static_cast<std::size_t>(chunks * count);
    if (slabs_.size() < total)
        slabs_ = AlignedBuffer<float>(kUninit, total);
    float *slabs = slabs_.data();

    pool.parallelForDynamic(chunks, [&](std::int64_t c, int) {
        float *slab = slabs + c * count;
        std::memset(slab, 0, sizeof(float) * count);
        for (std::int64_t b = c * batch / chunks;
             b < (c + 1) * batch / chunks; ++b)
            image(b, slab);
    }, /*grain=*/1);

    // Every element sums its chunks in chunk order, so splitting the
    // elements across workers keeps the result exact; fma(1, x, y) ==
    // x + y, so the vectorized axpy is the plain += loop.
    auto sum = [&](std::int64_t begin, std::int64_t end, int) {
        std::memset(dst + begin, 0, sizeof(float) * (end - begin));
        for (std::int64_t c = 0; c < chunks; ++c)
            axpy(end - begin, 1.0f, slabs + c * count + begin,
                 dst + begin);
    };
    if (count >= kParallelSumElems)
        pool.parallelFor(count, sum);
    else
        sum(0, count, 0);
}

} // namespace spg
