/**
 * @file
 * Tests for the observability layer: trace rings and Chrome-JSON
 * flushing, the metrics registry (including concurrent updates, which
 * the SPG_SANITIZE=thread build checks for races), the drift report's
 * percentile math, and the bundled JSON parser.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/drift.hh"
#include "obs/json_lite.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "threading/thread_pool.hh"

namespace spg {
namespace {

using obs::JsonValue;

/** Enable tracing for one test body, restoring the disabled state. */
class ScopedTracing
{
  public:
    ScopedTracing()
    {
        obs::Tracer::global().clear();
        obs::Tracer::global().enable("");
    }

    ~ScopedTracing()
    {
        obs::Tracer::global().disable();
        obs::Tracer::global().clear();
    }
};

TEST(TraceRing, KeepsNewestOnOverflow)
{
    obs::TraceRing ring(8);
    ASSERT_EQ(ring.capacity(), 8u);
    for (int i = 0; i < 20; ++i) {
        obs::TraceEvent ev;
        ev.ts_ns = static_cast<std::uint64_t>(i);
        ring.push(ev);
    }
    EXPECT_EQ(ring.pushed(), 20u);
    EXPECT_EQ(ring.dropped(), 12u);
    std::vector<obs::TraceEvent> events = ring.snapshot();
    ASSERT_EQ(events.size(), 8u);
    // The newest 8 events (ts 12..19) survive, oldest first.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].ts_ns, 12 + i);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo)
{
    obs::TraceRing ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
}

TEST(TraceRing, DroppedEventsReachTheMetricOnFlush)
{
    ScopedTracing tracing;
    if (!obs::traceEnabled())
        GTEST_SKIP() << "tracing compiled out";

    obs::Metrics::global().counter("trace.dropped_events").reset();
    obs::Tracer &tracer = obs::Tracer::global();
    // setCapacity only affects rings created after the call, so drive
    // a fresh thread: its ring holds 4 slots and must drop 96 of the
    // 100 pushes.
    tracer.setCapacity(4);
    std::thread t([&] {
        for (int i = 0; i < 100; ++i)
            obs::traceComplete("test", "overflow", i, 1);
    });
    t.join();
    tracer.setCapacity(1 << 16);
    EXPECT_EQ(tracer.droppedEvents(), 96u);
    tracer.flushToString();
    EXPECT_EQ(
        obs::Metrics::global().counter("trace.dropped_events").value(),
        96);
}

TEST(Trace, SpansNestAcrossPoolWorkers)
{
    ScopedTracing tracing;
    if (!obs::traceEnabled())
        GTEST_SKIP() << "tracing compiled out";

    ThreadPool pool(4);
    {
        SPG_TRACE_SCOPE("test", "outer");
        // Force a second participant: whoever claims the first item
        // holds it (yielding, with a timeout) until another participant
        // has claimed one, so the region spans at least two lanes on
        // any host, however the workers are scheduled.
        std::atomic<int> first{-1};
        std::atomic<bool> second{false};
        pool.parallelFor2D(8, 8, [&](std::int64_t, std::int64_t, int who) {
            SPG_TRACE_SCOPE("test", "inner");
            int expected = -1;
            if (!first.compare_exchange_strong(expected, who) &&
                expected != who)
                second.store(true);
            auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!second.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        });
        EXPECT_TRUE(second.load()) << "no second participant in 10 s";
    }
    std::string doc = obs::Tracer::global().flushToString();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(obs::parseJson(doc, root, &error)) << error;
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    // Every "inner" span must fall inside the "outer" span's window,
    // and the pool's participation spans must land on >= 2 lanes
    // (the caller plus at least one worker).
    double outer_begin = 0, outer_end = 0;
    bool found_outer = false;
    for (const JsonValue &ev : events->array) {
        const JsonValue *name = ev.find("name");
        if (name != nullptr && name->string == "outer") {
            outer_begin = ev.find("ts")->number;
            outer_end = outer_begin + ev.find("dur")->number;
            found_outer = true;
        }
    }
    ASSERT_TRUE(found_outer);

    int inner_count = 0;
    std::set<double> region_tids;
    for (const JsonValue &ev : events->array) {
        const JsonValue *name = ev.find("name");
        if (name == nullptr)
            continue;
        if (name->string == "inner") {
            ++inner_count;
            double ts = ev.find("ts")->number;
            EXPECT_GE(ts, outer_begin);
            EXPECT_LE(ts + ev.find("dur")->number, outer_end + 1e-3);
        }
        if (name->string == "region")
            region_tids.insert(ev.find("tid")->number);
    }
    EXPECT_EQ(inner_count, 64);
    EXPECT_GE(region_tids.size(), 2u);
}

TEST(Trace, NamedThreadOwnsNoRingWhileTracingIsOff)
{
    // Naming a lane (every pool worker does at startup) must not
    // allocate an event ring; the first recorded event does.
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.disable();
    bool named_owns = true, traced_owns = false;
    std::thread([&] {
        obs::setCurrentThreadName("idle lane");
        named_owns = tracer.threadOwnsRing();
        tracer.record(obs::TraceEvent{});
        traced_owns = tracer.threadOwnsRing();
    }).join();
    EXPECT_FALSE(named_owns);
    EXPECT_TRUE(traced_owns);
    tracer.clear();
}

TEST(Trace, FlushedJsonRoundTrips)
{
    ScopedTracing tracing;
    if (!obs::traceEnabled())
        GTEST_SKIP() << "tracing compiled out";

    obs::traceComplete("cat", "with args", 1000, 500, "a", -3, "b", 7);
    obs::traceInstant("cat", "mark \"quoted\"\n");
    obs::traceAsyncBegin("cat", "async", 42);
    obs::traceAsyncEnd("cat", "async", 42);
    obs::traceCounter("nnz", 123);
    std::string doc = obs::Tracer::global().flushToString();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(obs::parseJson(doc, root, &error)) << error;

    // Round-trip: serialize the parsed tree and re-parse; the two
    // trees must compare equal (object key order is irrelevant).
    JsonValue again;
    ASSERT_TRUE(obs::parseJson(root.serialize(), again, &error))
        << error;
    EXPECT_TRUE(root == again);

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_args = false, saw_escaped = false, saw_counter = false;
    for (const JsonValue &ev : events->array) {
        const JsonValue *name = ev.find("name");
        if (name == nullptr)
            continue;
        if (name->string == "with args") {
            const JsonValue *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("a")->number, -3);
            EXPECT_EQ(args->find("b")->number, 7);
            saw_args = true;
        }
        if (name->string == "mark \"quoted\"\n")
            saw_escaped = true;
        if (name->string == "nnz") {
            EXPECT_EQ(ev.find("args")->find("value")->number, 123);
            saw_counter = true;
        }
    }
    EXPECT_TRUE(saw_args);
    EXPECT_TRUE(saw_escaped);
    EXPECT_TRUE(saw_counter);
}

TEST(Trace, SidecarPathSwapsExtension)
{
    EXPECT_EQ(obs::sidecarPath("run.json", ".metrics.json"),
              "run.metrics.json");
    EXPECT_EQ(obs::sidecarPath("/tmp/a/trace.json", ".drift.json"),
              "/tmp/a/trace.drift.json");
    EXPECT_EQ(obs::sidecarPath("trace.out", ".metrics.json"),
              "trace.out.metrics.json");
}

TEST(Metrics, RegistryFindsOrCreatesStableRefs)
{
    obs::Metrics &m = obs::Metrics::global();
    obs::Counter &c1 = m.counter("test.stable");
    obs::Counter &c2 = m.counter("test.stable");
    EXPECT_EQ(&c1, &c2);
    c1.reset();
    c1.add(3);
    EXPECT_EQ(c2.value(), 3);
    m.reset();
    EXPECT_EQ(c1.value(), 0);
    c1.add(1);  // the reference survives reset()
    EXPECT_EQ(c2.value(), 1);
}

TEST(Metrics, ConcurrentUpdatesAreExact)
{
    obs::Metrics &m = obs::Metrics::global();
    m.counter("test.racy").reset();
    m.histogram("test.racy_hist").reset();
    m.gauge("test.racy_gauge").reset();

    ThreadPool pool(4);
    constexpr std::int64_t kItems = 10000;
    pool.parallelForDynamic(kItems, [&](std::int64_t i, int) {
        m.counter("test.racy").add();
        m.histogram("test.racy_hist")
            .observe(1e-6 * static_cast<double>((i % 8) + 1));
        m.gauge("test.racy_gauge").set(static_cast<double>(i));
    });

    EXPECT_EQ(m.counter("test.racy").value(), kItems);
    obs::Histogram &h = m.histogram("test.racy_hist");
    EXPECT_EQ(h.count(), kItems);
    EXPECT_NEAR(h.sum(), 1e-6 * 4.5 * kItems, 1e-6);
    EXPECT_DOUBLE_EQ(h.minValue(), 1e-6);
    EXPECT_DOUBLE_EQ(h.maxValue(), 8e-6);
    double g = m.gauge("test.racy_gauge").value();
    EXPECT_GE(g, 0);
    EXPECT_LT(g, static_cast<double>(kItems));
}

TEST(Metrics, HistogramBucketsArePowerOfTwoNanoseconds)
{
    obs::Histogram h;
    h.observe(1e-9);   // exactly 1 ns -> bucket 0
    h.observe(3e-9);   // (2, 4] ns -> bucket 2
    h.observe(1.0);    // 1 s = 2^30 ns is within bucket 30
    EXPECT_EQ(h.bucketCount(0), 1);
    EXPECT_EQ(h.bucketCount(2), 1);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketBound(0), 1e-9);
    EXPECT_DOUBLE_EQ(obs::Histogram::bucketBound(3), 8e-9);
}

TEST(Metrics, HistogramPercentileWalksBucketsWithinObservedRange)
{
    obs::Histogram h;
    EXPECT_EQ(h.percentile(0.5), 0.0);  // empty

    // 90 fast samples around 1ms, 10 slow around 1s: the p50 must
    // stay in the fast mode, the p99 must land in the slow tail, and
    // both clamp into [min, max] despite power-of-two bucket edges.
    for (int i = 0; i < 90; ++i)
        h.observe(1e-3);
    for (int i = 0; i < 10; ++i)
        h.observe(1.0);
    double p50 = h.percentile(0.50);
    double p99 = h.percentile(0.99);
    EXPECT_GE(p50, h.minValue());
    EXPECT_LE(p50, 2e-3 + 1e-12);  // within a factor of two of 1ms
    EXPECT_GE(p99, 0.5);           // within a factor of two of 1s
    EXPECT_LE(p99, h.maxValue());
    EXPECT_LE(h.percentile(0.0), p50);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), h.maxValue());

    // Single sample: every percentile is that sample.
    obs::Histogram one;
    one.observe(0.125);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 0.125);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 0.125);
}

TEST(Metrics, JsonDumpParses)
{
    obs::Metrics &m = obs::Metrics::global();
    m.counter("test.json_counter").reset();
    m.counter("test.json_counter").add(5);
    m.gauge("test.json_gauge").set(0.25);
    m.histogram("test.json_hist").observe(0.5);

    JsonValue root;
    std::string error;
    ASSERT_TRUE(obs::parseJson(m.toJson(), root, &error)) << error;
    const JsonValue *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *c = counters->find("test.json_counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("value")->number, 5);
    EXPECT_EQ(c->find("unit")->string, "count");
    const JsonValue *g = root.find("gauges")->find("test.json_gauge");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->find("value")->number, 0.25);
    ASSERT_NE(g->find("unit"), nullptr);
    const JsonValue *hist =
        root.find("histograms")->find("test.json_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->number, 1);
    ASSERT_NE(hist->find("unit"), nullptr);
}

TEST(Metrics, UnitInference)
{
    EXPECT_EQ(obs::Metrics::unitFor("trainer.epoch_joules"), "joules");
    EXPECT_EQ(obs::Metrics::unitFor("conv.fp.seconds"), "seconds");
    EXPECT_EQ(obs::Metrics::unitFor("perf.llc_miss_bytes"), "bytes");
    EXPECT_EQ(obs::Metrics::unitFor("perf.instructions"),
              "instructions");
    EXPECT_EQ(obs::Metrics::unitFor("sched.imbalance"), "ratio");
    EXPECT_EQ(obs::Metrics::unitFor("perf.available"), "ratio");
    EXPECT_EQ(obs::Metrics::unitFor("pool.steals"), "count");

    obs::Metrics &m = obs::Metrics::global();
    m.gauge("test.unit_override").set(1.0);
    EXPECT_EQ(m.unitOf("test.unit_override"), "count");
    m.setUnit("test.unit_override", "widgets");
    EXPECT_EQ(m.unitOf("test.unit_override"), "widgets");
}

TEST(Drift, PercentilesAreNearestRank)
{
    obs::DriftReport report;
    // Errors 10%, 20%, ..., 100% across two regions.
    for (int i = 1; i <= 10; ++i) {
        obs::DriftSample s;
        s.label = "conv0";
        s.phase = "FP";
        s.engine = "stencil";
        s.region = i <= 5 ? "R1" : "R4";
        s.measured_seconds = 1.0;
        s.modeled_seconds = 1.0 - 0.1 * i;
        report.add(s);
    }
    obs::DriftStats all = report.overall();
    EXPECT_EQ(all.samples, 10);
    EXPECT_NEAR(all.p50, 0.5, 1e-12);
    EXPECT_NEAR(all.p90, 0.9, 1e-12);
    EXPECT_NEAR(all.max, 1.0, 1e-12);
    EXPECT_NEAR(all.mean_signed, 0.55, 1e-12);

    std::vector<obs::DriftStats> regions = report.byRegion();
    ASSERT_EQ(regions.size(), 2u);
    EXPECT_EQ(regions[0].key, "R1");
    EXPECT_EQ(regions[0].samples, 5);
    EXPECT_NEAR(regions[0].p50, 0.3, 1e-12);
    EXPECT_EQ(regions[1].key, "R4");
    EXPECT_NEAR(regions[1].max, 1.0, 1e-12);
}

TEST(Drift, JsonReportParses)
{
    obs::DriftReport report;
    obs::DriftSample s;
    s.label = "conv1";
    s.phase = "BP-data";
    s.engine = "sparse";
    s.region = "R5";
    s.measured_seconds = 2e-3;
    s.modeled_seconds = 1e-3;
    report.add(s);

    JsonValue root;
    std::string error;
    ASSERT_TRUE(obs::parseJson(report.toJson(), root, &error)) << error;
    EXPECT_EQ(root.find("overall")->find("samples")->number, 1);
    const JsonValue *by_region = root.find("by_region");
    ASSERT_NE(by_region, nullptr);
    ASSERT_NE(by_region->find("R5"), nullptr);
    const JsonValue &sample = root.find("samples")->array.at(0);
    EXPECT_EQ(sample.find("engine")->string, "sparse");
    EXPECT_NEAR(sample.find("rel_error")->number, 0.5, 1e-9);
}

TEST(Drift, ZeroMeasuredTimeHasZeroError)
{
    obs::DriftSample s;
    s.measured_seconds = 0;
    s.modeled_seconds = 1;
    EXPECT_EQ(s.relError(), 0);
}

TEST(JsonLite, ParsesScalarsAndNesting)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::parseJson(
        "{\"a\": [1, -2.5e2, true, false, null, \"x\\u0041\"]}", v,
        &error))
        << error;
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 6u);
    EXPECT_EQ(a->array[0].number, 1);
    EXPECT_EQ(a->array[1].number, -250);
    EXPECT_EQ(a->array[2].kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(a->array[2].boolean);
    EXPECT_EQ(a->array[4].kind, JsonValue::Kind::Null);
    EXPECT_EQ(a->array[5].string, "xA");
}

TEST(JsonLite, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string error;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "[1] trailing",
          "\"unterminated", "{\"dup\" : tru}", "[01x]",
          "\"bad \\q escape\""}) {
        EXPECT_FALSE(obs::parseJson(bad, v, &error))
            << "accepted: " << bad;
        EXPECT_FALSE(error.empty());
    }
}

TEST(JsonLite, EqualityIgnoresObjectKeyOrder)
{
    JsonValue a, b, c;
    std::string error;
    ASSERT_TRUE(obs::parseJson("{\"x\": 1, \"y\": [2]}", a, &error));
    ASSERT_TRUE(obs::parseJson("{\"y\": [2], \"x\": 1}", b, &error));
    ASSERT_TRUE(obs::parseJson("{\"y\": [2], \"x\": 2}", c, &error));
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(a != c);
}

} // namespace
} // namespace spg
