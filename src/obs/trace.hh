/**
 * @file
 * Low-overhead span tracing flushed as Chrome trace-event JSON.
 *
 * The paper's methodology (§3-§4) is profiling-driven: engine choices
 * are only as good as the visibility into per-layer, per-phase and
 * per-worker behaviour. This tracer makes every training run
 * inspectable in Perfetto / chrome://tracing:
 *
 *  - Each thread owns a fixed-capacity ring of TraceEvents, allocated
 *    on its first recorded event (threads that never trace, e.g. pool
 *    workers named while tracing is off, own none); recording a span
 *    is two clock reads plus one slot write into thread-private
 *    storage — no locks, no allocation after the first event,
 *    newest-N semantics on overflow (the number of overwritten events
 *    is reported as the `trace.dropped_events` metric at flush time).
 *  - Spans are scoped (SPG_TRACE_SCOPE emits one complete "X" event at
 *    scope exit) or explicit begin/end ("B"/"E") for ranges that do
 *    not nest lexically; async "b"/"e" pairs carry an id so
 *    cross-thread spans join up in the viewer.
 *  - The fork-join pool names its workers and records one span per
 *    participation, so steals and chunk imbalance render as per-worker
 *    lanes under the layer/phase spans of the dispatching thread.
 *  - Tracing is disabled by default: the fast path of every macro is
 *    one relaxed atomic load and a predictable branch. It is enabled
 *    at runtime via SPG_TRACE=out.json (see initFromEnv()) or
 *    Tracer::enable(), and compiled out entirely with
 *    -DSPG_TRACE_DISABLED (CMake option SPG_TRACING=OFF), turning the
 *    macros into empty statements.
 *
 * Flushing walks every registered thread ring and must only run at a
 * quiescent point (no region in flight) — the natural cadence is once
 * per run, after training joins.
 */

#ifndef SPG_OBS_TRACE_HH
#define SPG_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spg {
namespace obs {

/** One trace event. Name/category/arg-name pointers must be string
 *  literals or Tracer::intern()ed strings (they outlive the run). */
struct TraceEvent
{
    const char *name = nullptr;
    const char *cat = nullptr;
    std::uint64_t ts_ns = 0;   ///< start, ns since the tracer epoch
    std::uint64_t dur_ns = 0;  ///< duration ("X" events only)
    char ph = 'X';             ///< Chrome phase: X B E i b e C
    std::int64_t id = 0;       ///< async span id / counter value
    const char *arg1_name = nullptr;
    std::int64_t arg1 = 0;
    const char *arg2_name = nullptr;
    std::int64_t arg2 = 0;
};

/**
 * Fixed-capacity single-writer event ring. The owning thread pushes;
 * readers snapshot only at quiescent points (the head index is
 * release-published so a post-join reader sees complete slots). On
 * overflow the oldest events are overwritten — the newest `capacity`
 * events always survive.
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity);

    /** Record one event (owner thread only). */
    void push(const TraceEvent &event);

    /** Surviving events, oldest first (quiescent points only). */
    std::vector<TraceEvent> snapshot() const;

    /** Total events ever pushed. */
    std::uint64_t pushed() const
    {
        return head.load(std::memory_order_acquire);
    }

    /** Events overwritten by newer ones. */
    std::uint64_t dropped() const
    {
        std::uint64_t n = pushed();
        return n > slots.size() ? n - slots.size() : 0;
    }

    std::size_t capacity() const { return slots.size(); }

    /** Forget everything (quiescent points only). */
    void clear() { head.store(0, std::memory_order_release); }

  private:
    std::vector<TraceEvent> slots;
    std::atomic<std::uint64_t> head{0};
};

#ifdef SPG_TRACE_DISABLED
/** Tracing compiled out: instrumentation folds to dead branches. */
constexpr bool
traceEnabled()
{
    return false;
}
#else
namespace detail {
extern std::atomic<bool> trace_enabled;
} // namespace detail

/** @return true when a tracer is runtime-enabled (fast path). */
inline bool
traceEnabled()
{
    return detail::trace_enabled.load(std::memory_order_relaxed);
}
#endif

/** @return ns since the tracer epoch (process start). */
std::uint64_t traceNowNs();

/**
 * The process-wide trace collector: thread registry, string interning
 * and JSON serialization. Instrumentation sites go through the free
 * functions / macros below; the class API is for harnesses (enable,
 * flush) and tests.
 */
class Tracer
{
  public:
    static Tracer &global();

    /**
     * Start recording. @p path is where finalize() writes the trace
     * JSON (empty: record but only flush on request — benches and
     * tests use flushToString()).
     */
    void enable(const std::string &path);

    /** Stop recording (already-buffered events are kept). */
    void disable();

    bool enabled() const { return traceEnabled(); }

    /** Output path given to enable(). */
    const std::string &path() const { return out_path; }

    /**
     * Events-per-thread ring capacity for buffers created AFTER this
     * call (existing rings keep their size). Rounded up to a power of
     * two; default 64Ki events.
     */
    void setCapacity(std::size_t events);

    /** Record one event into the calling thread's ring (allocating the
     *  ring on the thread's first event). */
    void record(const TraceEvent &event);

    /** @return true once the calling thread has allocated its ring. */
    bool threadOwnsRing();

    /** Name the calling thread's lane in the trace ("pool worker 3").
     *  Allocates no ring. */
    void setThreadName(const std::string &name);

    /**
     * Copy @p s into the tracer's string arena and return a stable
     * pointer usable as TraceEvent::name/cat. Takes a lock — intern
     * once (per layer / per engine), not per event.
     */
    const char *intern(const std::string &s);

    /**
     * Serialize every thread's surviving events as one Chrome
     * trace-event JSON document, record the total overwritten events
     * into the `trace.dropped_events` metric, and clear the rings.
     * Quiescent points only.
     */
    std::string flushToString();

    /** flushToString() to a file; fatal() on I/O failure. */
    void writeTo(const std::string &path);

    /** Drop all buffered events (quiescent points only). */
    void clear();

    /** Events currently overwritten across all rings (pre-flush). */
    std::uint64_t droppedEvents() const;

  private:
    Tracer() = default;

    struct ThreadRec;
    ThreadRec &threadRec();

    mutable std::mutex mu;
    std::vector<std::unique_ptr<ThreadRec>> threads;
    std::vector<std::unique_ptr<std::string>> arena;
    std::size_t ring_capacity = 1 << 16;
    std::string out_path;
};

/** Tracer::global().setThreadName() shorthand for thread entry hooks. */
void setCurrentThreadName(const std::string &name);

/** Tracer::global().intern() shorthand. */
const char *internName(const std::string &name);

/** Emit one complete "X" span from explicit timestamps (used where a
 *  scope object cannot straddle the measured code, e.g. the pool's
 *  participation loop). Pass nullptr arg names to omit args. */
void traceComplete(const char *cat, const char *name,
                   std::uint64_t ts_ns, std::uint64_t dur_ns,
                   const char *arg1_name = nullptr, std::int64_t arg1 = 0,
                   const char *arg2_name = nullptr, std::int64_t arg2 = 0);

/** Explicit begin/end pair ("B"/"E") on the calling thread's lane. */
void traceBegin(const char *cat, const char *name);
void traceEnd(const char *cat, const char *name);

/** Async span ("b"/"e"): ends may arrive on a different thread; the
 *  id ties the pair together in the viewer. */
void traceAsyncBegin(const char *cat, const char *name, std::int64_t id);
void traceAsyncEnd(const char *cat, const char *name, std::int64_t id);

/** Zero-duration instant event ("i") — annotations like the tuner's
 *  chosen-engine markers. */
void traceInstant(const char *cat, const char *name);

/** Counter sample ("C") rendered as a track in the viewer. */
void traceCounter(const char *name, std::int64_t value);

/**
 * RAII span: records one "X" event covering its lifetime. Inert when
 * tracing is disabled (one relaxed load in the constructor).
 */
class TraceScope
{
  public:
    TraceScope(const char *cat, const char *name,
               const char *arg1_name = nullptr, std::int64_t arg1 = 0,
               const char *arg2_name = nullptr, std::int64_t arg2 = 0)
    {
        if (!traceEnabled())
            return;
        active = true;
        ev.cat = cat;
        ev.name = name;
        ev.arg1_name = arg1_name;
        ev.arg1 = arg1;
        ev.arg2_name = arg2_name;
        ev.arg2 = arg2;
        ev.ts_ns = traceNowNs();
    }

    ~TraceScope()
    {
        if (!active)
            return;
        ev.dur_ns = traceNowNs() - ev.ts_ns;
        Tracer::global().record(ev);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceEvent ev;
    bool active = false;
};

/**
 * Read SPG_TRACE (output path; enables tracing) and
 * SPG_TRACE_CAPACITY (events per thread ring). Call once from main().
 */
void initFromEnv();

/**
 * If tracing was enabled with a path: write the trace JSON there and
 * the metrics JSON next to it (path with ".json" replaced by
 * ".metrics.json"), and inform() where they went. No-op otherwise.
 */
void finalize();

/** @return @p trace_path with ".json" swapped for @p suffix (or
 *  suffix appended) — how the metrics/drift documents are named. */
std::string sidecarPath(const std::string &trace_path,
                        const std::string &suffix);

} // namespace obs
} // namespace spg

// Scoped span macros; compile to empty statements under
// -DSPG_TRACE_DISABLED so instrumented hot paths carry zero overhead
// in tracing-free builds.
#define SPG_TRACE_CONCAT2_(a, b) a##b
#define SPG_TRACE_CONCAT_(a, b) SPG_TRACE_CONCAT2_(a, b)

#ifdef SPG_TRACE_DISABLED
#define SPG_TRACE_SCOPE(cat, name)                                        \
    do {                                                                  \
    } while (0)
#define SPG_TRACE_SCOPE_N(cat, name, a1name, a1)                          \
    do {                                                                  \
    } while (0)
#define SPG_TRACE_SCOPE_NN(cat, name, a1name, a1, a2name, a2)             \
    do {                                                                  \
    } while (0)
#else
#define SPG_TRACE_SCOPE(cat, name)                                        \
    ::spg::obs::TraceScope SPG_TRACE_CONCAT_(spg_trace_scope_,            \
                                             __LINE__)(cat, name)
#define SPG_TRACE_SCOPE_N(cat, name, a1name, a1)                          \
    ::spg::obs::TraceScope SPG_TRACE_CONCAT_(                             \
        spg_trace_scope_, __LINE__)(cat, name, a1name,                    \
                                    static_cast<std::int64_t>(a1))
#define SPG_TRACE_SCOPE_NN(cat, name, a1name, a1, a2name, a2)             \
    ::spg::obs::TraceScope SPG_TRACE_CONCAT_(                             \
        spg_trace_scope_, __LINE__)(cat, name, a1name,                    \
                                    static_cast<std::int64_t>(a1),        \
                                    a2name,                               \
                                    static_cast<std::int64_t>(a2))
#endif

#endif // SPG_OBS_TRACE_HH
