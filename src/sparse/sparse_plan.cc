#include "sparse/sparse_plan.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/fingerprint.hh"
#include "util/timer.hh"

namespace spg {

namespace {

/** A handful of conv layers times up to three phases is the working
 *  set; past this something is leaking keys, so start over. */
constexpr std::size_t kMaxEntries = 64;

/** Fingerprint of one image's errors plus its optional fused ReLU
 *  mask: both inputs determine the plan, so both feed the hash. */
std::uint64_t
imageFingerprint(const float *eo, std::int64_t count,
                 const std::uint8_t *mask)
{
    std::uint64_t h = fingerprintBytes(
        reinterpret_cast<const unsigned char *>(eo),
        static_cast<std::size_t>(count) * sizeof(float));
    if (mask) {
        std::uint64_t hm = fingerprintBytes(
            reinterpret_cast<const unsigned char *>(mask),
            static_cast<std::size_t>(count));
        h = (h ^ hm) * 1099511628211ull + (hm >> 31);
    }
    return h;
}

/**
 * Fingerprint of a batch: the images hash in parallel on the pool, and
 * their hashes combine serially in image order, so the value depends
 * only on the bytes, never on which worker hashed which image.
 */
std::uint64_t
fingerprint(const float *eo, std::int64_t batch, std::int64_t image_elems,
            const std::uint8_t *mask, ThreadPool &pool)
{
    std::vector<std::uint64_t> image_hash(static_cast<std::size_t>(batch));
    pool.parallelFor(batch, [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t b = begin; b < end; ++b)
            image_hash[b] = imageFingerprint(
                eo + b * image_elems, image_elems,
                mask ? mask + b * image_elems : nullptr);
    });
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t hb : image_hash)
        h = (h ^ hb) * 1099511628211ull + (h >> 29);
    return h;
}

} // namespace

std::int64_t
SparsePlan::nnz() const
{
    std::int64_t total = 0;
    for (const auto &m : images)
        total += m.nnz();
    return total;
}

SparsePlanCache &
SparsePlanCache::global()
{
    static SparsePlanCache cache;
    return cache;
}

std::shared_ptr<const SparsePlan>
SparsePlanCache::get(const float *eo, std::int64_t batch,
                     std::int64_t features, std::int64_t h,
                     std::int64_t w, std::int64_t tile_width,
                     ThreadPool &pool, const std::uint8_t *mask)
{
    Key key{eo, batch, features, h, w, tile_width, mask};
    std::int64_t image_elems = features * h * w;
    std::uint64_t fp = fingerprint(eo, batch, image_elems, mask, pool);

    std::shared_ptr<SparsePlan> plan;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            if (it->second.fingerprint == fp) {
                ++stats_.hits;
                obs::Metrics::global()
                    .counter("sparse_plans.hits")
                    .add();
                return it->second.plan;
            }
            // Stale entry: if nobody else holds the plan, recycle its
            // per-image matrices as arena storage for the re-encode.
            if (it->second.plan.use_count() == 1)
                plan = std::move(it->second.plan);
            entries_.erase(it);
        }
    }

    if (!plan)
        plan = std::make_shared<SparsePlan>();
    plan->batch = batch;
    plan->rows = h * w;
    plan->cols = features;
    plan->tile_width = tile_width;
    plan->images.resize(batch);

    Stopwatch watch;
    {
        SPG_TRACE_SCOPE_N("sparse", "encode CT-CSR", "batch", batch);
        pool.parallelForDynamic(batch, [&](std::int64_t b, int) {
            plan->images[b].encodeFromChw(
                eo + b * image_elems, features, h, w, tile_width,
                mask ? mask + b * image_elems : nullptr);
        }, /*grain=*/1);
    }
    double seconds = watch.seconds();
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.counter("sparse_plans.encodes").add();
    metrics.counter("sparse_plans.nnz").add(plan->nnz());
    metrics.histogram("sparse_plans.encode_seconds").observe(seconds);

    std::lock_guard<std::mutex> lock(mu_);
    stats_.encodes += 1;
    stats_.encode_seconds += seconds;
    if (entries_.size() >= kMaxEntries)
        entries_.clear();
    entries_[key] = Entry{fp, plan};
    return plan;
}

void
SparsePlanCache::invalidate(const float *eo)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (std::get<0>(it->first) == eo)
            it = entries_.erase(it);
        else
            ++it;
    }
}

void
SparsePlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

std::size_t
SparsePlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

SparsePlanCache::Stats
SparsePlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
SparsePlanCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = Stats{};
}

} // namespace spg
