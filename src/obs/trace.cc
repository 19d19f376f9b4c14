#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace spg {
namespace obs {

namespace {

/** Round up to a power of two (for the ring mask). */
std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

using Clock = std::chrono::steady_clock;

/** Process-wide time zero for all trace timestamps. */
const Clock::time_point kEpoch = Clock::now();

/** Append a JSON-escaped string (incl. quotes). */
void
appendJsonString(std::string &out, const char *s)
{
    out += '"';
    for (; *s; ++s) {
        unsigned char c = static_cast<unsigned char>(*s);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Append ns as a microsecond decimal ("12345.678"). */
void
appendMicros(std::string &out, std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

} // namespace

#ifndef SPG_TRACE_DISABLED
namespace detail {
std::atomic<bool> trace_enabled{false};
} // namespace detail
#endif

TraceRing::TraceRing(std::size_t capacity)
    : slots(roundUpPow2(std::max<std::size_t>(capacity, 2)))
{
}

void
TraceRing::push(const TraceEvent &event)
{
    std::uint64_t h = head.load(std::memory_order_relaxed);
    slots[h & (slots.size() - 1)] = event;
    head.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent>
TraceRing::snapshot() const
{
    std::uint64_t h = head.load(std::memory_order_acquire);
    std::uint64_t n = std::min<std::uint64_t>(h, slots.size());
    std::vector<TraceEvent> out;
    out.reserve(n);
    for (std::uint64_t i = h - n; i < h; ++i)
        out.push_back(slots[i & (slots.size() - 1)]);
    return out;
}

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - kEpoch)
            .count());
}

struct Tracer::ThreadRec
{
    explicit ThreadRec(int tid) : tid(tid) {}

    /** Allocated by the owning thread on its first record(), under the
     *  registry lock, so threads that never trace own no buffer. */
    std::unique_ptr<TraceRing> ring;
    int tid;
    std::string name;
};

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

Tracer::ThreadRec &
Tracer::threadRec()
{
    thread_local ThreadRec *rec = nullptr;
    // The registry owns the record, so flushing after a thread exits
    // (pool destruction, detached workers) stays valid.
    if (rec == nullptr) {
        std::lock_guard<std::mutex> lock(mu);
        threads.push_back(
            std::make_unique<ThreadRec>(static_cast<int>(threads.size())));
        rec = threads.back().get();
    }
    return *rec;
}

void
Tracer::enable(const std::string &path)
{
#ifdef SPG_TRACE_DISABLED
    (void)path;
    warn("tracing requested but compiled out (SPG_TRACING=OFF)");
#else
    {
        std::lock_guard<std::mutex> lock(mu);
        out_path = path;
    }
    detail::trace_enabled.store(true, std::memory_order_relaxed);
#endif
}

void
Tracer::disable()
{
#ifndef SPG_TRACE_DISABLED
    detail::trace_enabled.store(false, std::memory_order_relaxed);
#endif
}

void
Tracer::setCapacity(std::size_t events)
{
    std::lock_guard<std::mutex> lock(mu);
    ring_capacity = std::max<std::size_t>(events, 2);
}

void
Tracer::record(const TraceEvent &event)
{
    ThreadRec &rec = threadRec();
    if (!rec.ring) {
        std::lock_guard<std::mutex> lock(mu);
        rec.ring = std::make_unique<TraceRing>(ring_capacity);
    }
    rec.ring->push(event);
}

bool
Tracer::threadOwnsRing()
{
    return threadRec().ring != nullptr;
}

void
Tracer::setThreadName(const std::string &name)
{
    ThreadRec &rec = threadRec();
    std::lock_guard<std::mutex> lock(mu);
    rec.name = name;
}

const char *
Tracer::intern(const std::string &s)
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &owned : arena) {
        if (*owned == s)
            return owned->c_str();
    }
    arena.push_back(std::make_unique<std::string>(s));
    return arena.back()->c_str();
}

std::string
Tracer::flushToString()
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &rec : threads) {
        std::string name = rec->name.empty()
                               ? "thread " + std::to_string(rec->tid)
                               : rec->name;
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" +
               std::to_string(rec->tid) +
               ",\"name\":\"thread_name\",\"args\":{\"name\":";
        appendJsonString(out, name.c_str());
        out += "}}";
        if (!rec->ring)
            continue;
        dropped += rec->ring->dropped();
        for (const TraceEvent &ev : rec->ring->snapshot()) {
            out += ",\n{\"ph\":\"";
            out += ev.ph;
            out += "\",\"pid\":0,\"tid\":" + std::to_string(rec->tid);
            out += ",\"cat\":";
            appendJsonString(out, ev.cat ? ev.cat : "spg");
            out += ",\"name\":";
            appendJsonString(out, ev.name ? ev.name : "?");
            out += ",\"ts\":";
            appendMicros(out, ev.ts_ns);
            if (ev.ph == 'X') {
                out += ",\"dur\":";
                appendMicros(out, ev.dur_ns);
            }
            if (ev.ph == 'b' || ev.ph == 'e')
                out += ",\"id\":" + std::to_string(ev.id);
            if (ev.ph == 'i')
                out += ",\"s\":\"t\"";
            if (ev.ph == 'C') {
                out += ",\"args\":{\"value\":" + std::to_string(ev.id) +
                       "}";
            } else if (ev.arg1_name != nullptr) {
                out += ",\"args\":{";
                appendJsonString(out, ev.arg1_name);
                out += ':';
                out += std::to_string(ev.arg1);
                if (ev.arg2_name != nullptr) {
                    out += ',';
                    appendJsonString(out, ev.arg2_name);
                    out += ':';
                    out += std::to_string(ev.arg2);
                }
                out += "}";
            }
            out += "}";
        }
        rec->ring->clear();
    }
    out += "\n]}\n";
    if (dropped > 0) {
        Metrics::global()
            .counter("trace.dropped_events")
            .add(static_cast<std::int64_t>(dropped));
    }
    return out;
}

void
Tracer::writeTo(const std::string &path)
{
    std::string doc = flushToString();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write trace to '%s'", path.c_str());
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &rec : threads)
        if (rec->ring)
            rec->ring->clear();
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::uint64_t dropped = 0;
    for (const auto &rec : threads)
        if (rec->ring)
            dropped += rec->ring->dropped();
    return dropped;
}

void
setCurrentThreadName(const std::string &name)
{
    Tracer::global().setThreadName(name);
}

const char *
internName(const std::string &name)
{
    return Tracer::global().intern(name);
}

void
traceComplete(const char *cat, const char *name, std::uint64_t ts_ns,
              std::uint64_t dur_ns, const char *arg1_name,
              std::int64_t arg1, const char *arg2_name, std::int64_t arg2)
{
    if (!traceEnabled())
        return;
    TraceEvent ev;
    ev.ph = 'X';
    ev.cat = cat;
    ev.name = name;
    ev.ts_ns = ts_ns;
    ev.dur_ns = dur_ns;
    ev.arg1_name = arg1_name;
    ev.arg1 = arg1;
    ev.arg2_name = arg2_name;
    ev.arg2 = arg2;
    Tracer::global().record(ev);
}

namespace {

void
tracePoint(char ph, const char *cat, const char *name, std::int64_t id)
{
    if (!traceEnabled())
        return;
    TraceEvent ev;
    ev.ph = ph;
    ev.cat = cat;
    ev.name = name;
    ev.ts_ns = traceNowNs();
    ev.id = id;
    Tracer::global().record(ev);
}

} // namespace

void
traceAsyncBegin(const char *cat, const char *name, std::int64_t id)
{
    tracePoint('b', cat, name, id);
}

void
traceAsyncEnd(const char *cat, const char *name, std::int64_t id)
{
    tracePoint('e', cat, name, id);
}

void
traceInstant(const char *cat, const char *name)
{
    tracePoint('i', cat, name, 0);
}

void
traceCounter(const char *name, std::int64_t value)
{
    tracePoint('C', "metric", name, value);
}

void
initFromEnv()
{
    const char *capacity = std::getenv("SPG_TRACE_CAPACITY");
    if (capacity != nullptr) {
        long n = std::atol(capacity);
        if (n < 2)
            warn("ignoring SPG_TRACE_CAPACITY='%s' (need >= 2)", capacity);
        else
            Tracer::global().setCapacity(static_cast<std::size_t>(n));
    }
    const char *path = std::getenv("SPG_TRACE");
    if (path != nullptr && path[0] != '\0')
        Tracer::global().enable(path);
}

void
finalize()
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled() || tracer.path().empty())
        return;
    std::string trace_path = tracer.path();
    tracer.disable();
    tracer.writeTo(trace_path);
    std::string metrics_path = sidecarPath(trace_path, ".metrics.json");
    Metrics::global().writeTo(metrics_path);
    inform("trace written to %s (metrics: %s)", trace_path.c_str(),
           metrics_path.c_str());
}

std::string
sidecarPath(const std::string &trace_path, const std::string &suffix)
{
    const std::string ext = ".json";
    if (trace_path.size() > ext.size() &&
        trace_path.compare(trace_path.size() - ext.size(), ext.size(),
                           ext) == 0) {
        return trace_path.substr(0, trace_path.size() - ext.size()) +
               suffix;
    }
    return trace_path + suffix;
}

} // namespace obs
} // namespace spg
