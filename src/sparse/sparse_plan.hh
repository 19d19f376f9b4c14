/**
 * @file
 * Process-wide cache of per-minibatch CT-CSR encodings of the error
 * gradients ("sparse plans").
 *
 * The Sparse-Kernel BP engine consumes the SAME error tensor EO twice
 * per layer per minibatch — once for BP-data and once for BP-weights —
 * and without caching each call re-runs the layout transform and
 * CT-CSR compression on every image. The cache encodes EO once (with
 * the fused CtCsrMatrix::fromChw builder, so no dense HWC staging is
 * ever written) and hands both phases the same read-only plan: the
 * second phase replays non-zeros with zero encoding work or traffic.
 *
 * Staleness is handled like WeightPlanCache: a keyed lookup
 * (pointer + geometry + tile width) plus a content fingerprint
 * (util/fingerprint.hh) checked on every get(), so a new minibatch
 * written into the same tensor storage — the steady-state training
 * pattern — re-encodes, while the BP-weights call that follows
 * BP-data hits. The fingerprint
 * pass reads EO once per get(), one image per pool task, amortized
 * against the full transform + compression round trip it replaces.
 *
 * Entries are shared_ptr<const SparsePlan>; invalidation mid-phase
 * just drops the cache's reference and workers finish on the old plan.
 * When an entry is replaced and nobody else holds it, its per-image
 * matrices are recycled as arena storage for the re-encode, so
 * steady-state minibatches allocate nothing.
 */

#ifndef SPG_SPARSE_SPARSE_PLAN_HH
#define SPG_SPARSE_SPARSE_PLAN_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "sparse/csr.hh"
#include "threading/thread_pool.hh"

namespace spg {

/** One minibatch of error gradients encoded image-by-image in CT-CSR. */
struct SparsePlan
{
    std::int64_t batch = 0;       ///< images in the plan
    std::int64_t rows = 0;        ///< spatial positions per image
    std::int64_t cols = 0;        ///< features per image
    std::int64_t tile_width = 0;  ///< CT-CSR column band width

    /** Per-image CT-CSR over the (Oy*Ox) x Nf matrix. */
    std::vector<CtCsrMatrix> images;

    /** @return total stored non-zeros across the batch. */
    std::int64_t nnz() const;
};

/** Global encode-once cache for sparse BP error-gradient plans. */
class SparsePlanCache
{
  public:
    /** Cache effectiveness counters (benchmarks, tuner accounting). */
    struct Stats
    {
        std::int64_t encodes = 0;   ///< plans built (cache misses)
        std::int64_t hits = 0;      ///< gets served without encoding
        double encode_seconds = 0;  ///< wall time spent encoding
    };

    /** @return the process-wide instance. */
    static SparsePlanCache &global();

    /**
     * @return the CT-CSR plan of the batched [B][C][H][W] tensor at
     * @p eo, encoding it now (in parallel over images on @p pool) if
     * absent or if the cached entry's content fingerprint no longer
     * matches the tensor bytes.
     *
     * A non-null @p mask (byte mask, same layout as @p eo) fuses the
     * ReLU backward gate into the encode: the plan stores
     * (mask ? eo : 0). Masked and unmasked plans of the same tensor
     * are distinct cache entries, and the fingerprint covers the mask
     * bytes too, so a mask rewritten in place re-encodes.
     */
    std::shared_ptr<const SparsePlan>
    get(const float *eo, std::int64_t batch, std::int64_t features,
        std::int64_t h, std::int64_t w, std::int64_t tile_width,
        ThreadPool &pool, const std::uint8_t *mask = nullptr);

    /** Drop every plan encoded from the given tensor storage. */
    void invalidate(const float *eo);

    /** Drop everything (tests / benchmarks). */
    void clear();

    /** @return number of live entries (tests). */
    std::size_t size() const;

    /** @return accumulated counters since construction/resetStats. */
    Stats stats() const;

    /** Zero the counters (benchmarks time separate phases). */
    void resetStats();

  private:
    using Key = std::tuple<const float *, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           const std::uint8_t *>;
    struct Entry
    {
        std::uint64_t fingerprint;
        std::shared_ptr<SparsePlan> plan;
    };

    mutable std::mutex mu_;
    std::map<Key, Entry> entries_;
    Stats stats_;
};

} // namespace spg

#endif // SPG_SPARSE_SPARSE_PLAN_HH
