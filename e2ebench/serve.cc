/**
 * @file
 * serve_mnist: a forward-only mnist replica behind serve::Server,
 * probed for capacity with a pre-filled drain and driven open-loop at
 * two fixed Poisson rates by the benchmark's own generator, which times
 * every request from the moment it was due.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "core/net_config.hh"
#include "core/tuner.hh"
#include "data/suites.hh"
#include "data/synthetic.hh"
#include "nn/network.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"
#include "threading/thread_pool.hh"
#include "util/random.hh"
#include "util/timer.hh"
#include "workloads.hh"

namespace e2e {

using namespace spg;

namespace {

constexpr const char *kServeName = "serve_mnist";
constexpr std::int64_t kMaxBatch = 8;
constexpr double kBudgetMs = 2.0;
constexpr std::size_t kQueue = 256;
constexpr double kLowQps = 2000;
constexpr double kHighQps = 6000;
constexpr double kSloMs = 10.0;
constexpr std::int64_t kImages = 256;
/** Requests pre-filled per capacity probe (queue sized to admit them). */
constexpr std::int64_t kProbeRequests = 4096;
constexpr int kMinProbes = 3;
/** Open-loop tails are taken per window of due times, sized to hold
 *  about this many requests (p99 then has ~15 samples beyond it), and
 *  the median window is reported: a shared host's scheduling stalls
 *  hit some windows, and one stall should not move the whole run. */
constexpr double kWindowRequests = 1500;

serve::ServerOptions
serverOptions(std::uint64_t seed)
{
    serve::ServerOptions o;
    o.instances = 1;
    o.max_batch = kMaxBatch;
    o.batch_budget_ms = kBudgetMs;
    o.queue_capacity = kQueue;
    o.threads_per_instance = 1;
    o.tune = true;
    o.tuner_reps = kTunerReps;
    o.seed = seed;
    return o;
}

/** What the generator hands the server, plus its own due times. */
struct Traffic
{
    std::unique_ptr<serve::Request[]> reqs;
    std::vector<std::int64_t> due_ns;
    std::vector<int> image;
    std::vector<char> accepted;
    std::size_t n = 0;
};

Traffic
makeTraffic(std::size_t n, const Dataset &images, Rng &rng)
{
    Traffic t;
    t.n = n;
    t.reqs = std::make_unique<serve::Request[]>(n);
    t.due_ns.assign(n, 0);
    t.image.assign(n, 0);
    t.accepted.assign(n, 0);
    std::int64_t elems = images.channels * images.height * images.width;
    for (std::size_t i = 0; i < n; ++i) {
        int img = static_cast<int>(rng.below(kImages));
        t.image[i] = img;
        t.reqs[i].id = static_cast<std::int64_t>(i);
        t.reqs[i].image = images.images.data() + img * elems;
        t.reqs[i].elems = elems;
    }
    return t;
}

/** Verdict counts of one traffic batch after the server drained. */
struct Verdicts
{
    std::int64_t sent = 0, rejected = 0, incomplete = 0, wrong = 0;
    std::int64_t bad() const { return rejected + incomplete + wrong; }
};

Verdicts
judge(const Traffic &t, const std::vector<int> &reference)
{
    Verdicts v;
    for (std::size_t i = 0; i < t.n; ++i) {
        ++v.sent;
        switch (classify(t.accepted[i] != 0,
                         t.reqs[i].done.load(std::memory_order_acquire),
                         t.reqs[i].predicted, reference[t.image[i]])) {
          case Outcome::Rejected: ++v.rejected; break;
          case Outcome::Incomplete: ++v.incomplete; break;
          case Outcome::WrongPrediction: ++v.wrong; break;
          case Outcome::Ok: break;
        }
    }
    return v;
}

void
account(Report &rep, const Verdicts &v, const std::string &what)
{
    rep.tally.add(v.sent, v.bad());
    if (v.wrong > 0)
        rep.fail(what + ": " + std::to_string(v.wrong) +
                 " predictions differ from the batch-1 reference");
    if (v.incomplete > 0)
        rep.fail(what + ": " + std::to_string(v.incomplete) +
                 " accepted requests never completed");
}

/** Open-loop Poisson traffic at @p qps for @p seconds, submitted on
 *  the benchmark's own schedule from this (the generator) thread. */
Traffic
openLoop(serve::Server &srv, const Dataset &images, double qps,
         double seconds, Rng &rng, SpanLog *spans)
{
    std::vector<std::int64_t> offsets;
    for (double t = 0;;) {
        double u = rng.uniform();
        t += -std::log(1.0 - std::min(u, 0.9999999)) / qps;
        if (t >= seconds)
            break;
        offsets.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    Traffic tr = makeTraffic(offsets.size(), images, rng);
    std::int64_t start = clockNs() + 1000000;
    for (std::size_t i = 0; i < tr.n; ++i) {
        std::int64_t due = start + offsets[i];
        tr.due_ns[i] = due;
        // Sleep while the gap is long, spin the last stretch: the
        // server runs one pool thread, so a spinning generator takes a
        // core it does not need.
        for (std::int64_t now = clockNs(); now < due; now = clockNs())
            if (due - now > 200000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now - 100000));
        int sp = spans ? spans->begin("serve.submit") : -1;
        tr.accepted[i] = srv.submit(tr.reqs[i]);
        if (spans)
            spans->end(sp);
    }
    srv.drain();
    return tr;
}

struct PhaseStats
{
    Summary latency;     ///< from due time, completed requests
    Summary gen_lag;     ///< submit stamp minus due time
    double goodput = 0;  ///< within SLO and correct / sent
    double batch_mean = 0;
    /** Median over due-time windows of each window's p99, over the
     *  windows with at least 10 samples beyond their p99. */
    double window_p99 = 0;
    int windows = 0;
};

PhaseStats
phaseStats(const Traffic &t, const std::vector<int> &reference, double qps)
{
    std::vector<double> lat, lag;
    std::vector<std::vector<double>> window;
    std::int64_t good = 0;
    double batch_sum = 0;
    for (std::size_t i = 0; i < t.n; ++i) {
        const serve::Request &r = t.reqs[i];
        if (!t.accepted[i] || !r.done.load(std::memory_order_acquire))
            continue;
        double ms = dueLatencyMs(t.due_ns[i], r.done_ns);
        auto w = static_cast<std::size_t>(
            static_cast<double>(t.due_ns[i] - t.due_ns[0]) * 1e-9 * qps /
            kWindowRequests);
        if (w >= window.size())
            window.resize(w + 1);
        window[w].push_back(ms);
        lat.push_back(ms);
        lag.push_back(dueLatencyMs(t.due_ns[i], r.submit_ns));
        batch_sum += static_cast<double>(r.batch);
        good += ms <= kSloMs && r.predicted == reference[t.image[i]];
    }
    PhaseStats s;
    std::vector<double> p99s;
    for (std::vector<double> &w : window) {
        Summary ws = summarize(std::move(w));
        if (ws.p99_ok)
            p99s.push_back(ws.p99);
    }
    s.windows = static_cast<int>(p99s.size());
    s.window_p99 = median(p99s);
    s.batch_mean = lat.empty() ? 0 : batch_sum / static_cast<double>(lat.size());
    s.latency = summarize(std::move(lat));
    s.gen_lag = summarize(std::move(lag));
    s.goodput = t.n ? static_cast<double>(good) / static_cast<double>(t.n) : 0;
    return s;
}

void
printPhase(Report &rep, const char *tag, double qps, const PhaseStats &s)
{
    std::string pre = std::string("serve.") + tag + ".";
    std::string n = "n=" + std::to_string(s.latency.n);
    rep.extra(pre + "p50_ms", s.latency.p50, "ms",
              "from due time at " + std::to_string(static_cast<int>(qps)) +
                  " qps, " + n);
    rep.extra(pre + "p99_ms", s.window_p99, "ms",
              "median over " + std::to_string(s.windows) +
                  " windows of ~" +
                  std::to_string(static_cast<int>(kWindowRequests)) +
                  " requests");
    rep.extra(pre + "p99_ms.whole_phase", s.latency.p99, "ms",
              n + (s.latency.p99_ok ? "" : " (fewer than 10 beyond p99)"));
    if (s.latency.tail_q > 0.99)
        rep.extra(pre + quantileLabel(s.latency.tail_q) + "_ms",
                  s.latency.tail, "ms",
                  "highest percentile with >=10 beyond, " + n);
    rep.extra(pre + "goodput_frac", s.goodput, "ratio",
              "within " + std::to_string(static_cast<int>(kSloMs)) +
                  " ms SLO and correct / sent");
    rep.extra(pre + "gen_lag_ms.p99", s.gen_lag.p99, "ms", n);
    rep.extra(pre + "batch_mean", s.batch_mean, "count", "");
}

std::string
planText(const serve::Server &srv)
{
    std::string out;
    const auto &plans = srv.servingPlans();
    for (std::size_t c = 0; c < plans.size(); ++c) {
        out += (c ? " | " : "") + srv.planLabels()[c] + ":";
        for (std::size_t b = 0; b < plans[c].buckets.size(); ++b)
            out += " b" + std::to_string(plans[c].buckets[b]) + "=" +
                   plans[c].fp_engines[b];
    }
    return out;
}

/** Shared set-up of both modes: the request images and the exact
 *  batch-1 prediction of each on a forward-only replica. */
struct Fixture
{
    NetConfig cfg;
    Dataset images;
    std::uint64_t server_seed = 0;
    std::vector<int> reference;
};

int
argmax(const float *row, std::int64_t classes)
{
    int best = 0;
    for (std::int64_t c = 1; c < classes; ++c)
        if (row[c] > row[best])
            best = static_cast<int>(c);
    return best;
}

Fixture
makeFixture(std::uint64_t seed)
{
    Fixture f;
    f.cfg = parseNetConfig(mnistNetConfigText());
    SyntheticSpec spec;
    spec.name = "mnist-synthetic";
    spec.channels = f.cfg.channels;
    spec.height = f.cfg.height;
    spec.width = f.cfg.width;
    spec.classes = static_cast<int>(f.cfg.classes);
    spec.count = kImages;
    spec.seed = deriveSeed(seed, 1);
    f.images = makeSynthetic(spec);
    f.server_seed = deriveSeed(seed, 2);

    Network ref(f.cfg, f.server_seed, true);
    ThreadPool pool(1);
    std::int64_t elems = spec.channels * spec.height * spec.width;
    for (std::int64_t i = 0; i < kImages; ++i) {
        Tensor one = Tensor::view(
            Shape{1, spec.channels, spec.height, spec.width},
            f.images.images.data() + i * elems);
        f.reference.push_back(
            argmax(ref.forward(one, pool).data(), ref.classes()));
    }
    return f;
}

void
serveUntraced(const RunArgs &a, Report &rep)
{
    Stopwatch clock;
    Fixture fx = makeFixture(a.seed);
    Rng rng(deriveSeed(a.seed, 4));
    std::vector<double> setup_s, capacity;

    // Capacity: each probe is a fresh server whose queue admits the
    // whole pre-fill, drained with nothing else running.
    for (int probe = 0;
         probe < kMinProbes || clock.seconds() < 0.3 * a.seconds; ++probe) {
        Stopwatch su;
        serve::ServerOptions o = serverOptions(fx.server_seed);
        o.queue_capacity = kProbeRequests;
        serve::Server srv(fx.cfg, o);
        srv.warmup();
        setup_s.push_back(su.seconds());
        Traffic t = makeTraffic(kProbeRequests, fx.images, rng);
        std::int64_t accepted = 0;
        for (std::size_t i = 0; i < t.n; ++i)
            accepted += t.accepted[i] = srv.submit(t.reqs[i]);
        std::int64_t t0 = clockNs();
        srv.start();
        srv.drain();
        double secs = static_cast<double>(clockNs() - t0) * 1e-9;
        srv.stop();
        capacity.push_back(static_cast<double>(accepted) / secs);
        account(rep, judge(t, fx.reference), "capacity probe");
        rep.line("probe %d: setup %.4f s, capacity %.0f qps, plan %s", probe,
                 setup_s.back(), capacity.back(), planText(srv).c_str());
    }

    Stopwatch su;
    serve::Server srv(fx.cfg, serverOptions(fx.server_seed));
    srv.warmup();
    setup_s.push_back(su.seconds());
    rep.line("open-loop server: setup %.4f s, plan %s", setup_s.back(),
             planText(srv).c_str());
    srv.start();
    Traffic low = openLoop(srv, fx.images, kLowQps, 0.25 * a.seconds, rng,
                           nullptr);
    Traffic high = openLoop(srv, fx.images, kHighQps, 0.35 * a.seconds, rng,
                            nullptr);
    srv.stop();
    account(rep, judge(low, fx.reference), "low rate");
    account(rep, judge(high, fx.reference), "high rate");
    PhaseStats ls = phaseStats(low, fx.reference, kLowQps);
    PhaseStats hs = phaseStats(high, fx.reference, kHighQps);
    if (hs.windows == 0)
        rep.fail("no high-rate window has enough requests for a p99");

    rep.extra("serve.capacity_qps", median(capacity), "qps",
              "median of " + std::to_string(capacity.size()) + " probes of " +
                  std::to_string(kProbeRequests));
    printPhase(rep, "low", kLowQps, ls);
    printPhase(rep, "high", kHighQps, hs);
    rep.extra("peak_rss_mb", peakRssMb(), "MiB", "not gated, see report.cc");
    rep.set("setup_s", median(setup_s));
    rep.set("throughput_per_s", median(capacity));
    rep.set("latency_p50_ms", hs.latency.p50);
    rep.set("latency_tail_ms", hs.window_p99);
}

void
serveTraced(const RunArgs &a, Report &rep)
{
    SpanLog spans;
    Fixture fx = makeFixture(a.seed);
    Rng rng(deriveSeed(a.seed, 4));

    serve::Server srv(fx.cfg, serverOptions(fx.server_seed));
    int wsp = spans.begin("serve.warmup");
    srv.warmup();
    spans.end(wsp);
    rep.set("serve.warmup_s", spans.totalMs("serve.warmup") * 1e-3);
    rep.line("plan %s", planText(srv).c_str());
    srv.start();
    Traffic low = openLoop(srv, fx.images, kLowQps, 0.2 * a.seconds, rng,
                           &spans);
    Traffic high = openLoop(srv, fx.images, kHighQps, 0.3 * a.seconds, rng,
                            &spans);
    srv.stop();
    account(rep, judge(low, fx.reference), "low rate");
    account(rep, judge(high, fx.reference), "high rate");

    // Forward-only replica at each bucket with the engines the server
    // deployed there.
    Network net(fx.cfg, fx.server_seed, true);
    ThreadPool pool(1);
    net.reserveBatch(kMaxBatch);
    auto convs = net.convLayers();
    const auto &plans = srv.servingPlans();
    std::vector<std::int64_t> buckets = Tuner::servingBuckets(kMaxBatch);
    std::vector<double> fp_ms(buckets.size(), 0);
    Geometry g = net.inputGeometry();
    const int reps = 200;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        for (std::size_t c = 0; c < convs.size(); ++c) {
            EngineAssignment e = convs[c]->engines();
            e.fp = plans[c].fp_engines[b];
            convs[c]->setEngines(e);
        }
        Tensor x = Tensor::view(Shape{buckets[b], g.c, g.h, g.w},
                                fx.images.images.data());
        net.forward(x, pool);  // warm the bucket's caches
        double conv0_before = convs[0]->profile().fp_seconds;
        std::string name = "serve.fp.b" + std::to_string(buckets[b]);
        for (int r = 0; r < reps; ++r) {
            int sp = spans.begin(name);
            net.forward(x, pool);
            spans.end(sp);
        }
        fp_ms[b] = spans.totalMs(name) / reps;
        rep.set("serve.fp_ms.b" + std::to_string(buckets[b]), fp_ms[b]);
        rep.set("conv.conv0.fp_ms.b" + std::to_string(buckets[b]),
                (convs[0]->profile().fp_seconds - conv0_before) * 1e3 / reps);
    }

    // Per-layer FP at the largest bucket, plus its pool and conv view.
    std::vector<std::string> names = layerNames(net);
    std::vector<Tensor> acts;
    for (std::size_t i = 0; i < net.layerCount(); ++i) {
        Geometry og = net.layer(i).outputGeometry();
        acts.emplace_back(Shape{kMaxBatch, og.c, og.h, og.w});
    }
    Tensor x = Tensor::view(Shape{kMaxBatch, g.c, g.h, g.w},
                            fx.images.images.data());
    PoolStats before = pool.stats();
    double conv0_before = convs[0]->profile().fp_seconds;
    std::int64_t t0 = clockNs();
    for (int r = 0; r < reps; ++r) {
        int step = spans.begin("nn.step");
        const Tensor *in = &x;
        for (std::size_t i = 0; i < net.layerCount(); ++i) {
            int sp = spans.begin("nn." + names.at(i) + ".fwd");
            net.layer(i).forward(*in, acts[i], pool);
            spans.end(sp);
            in = &acts[i];
        }
        spans.end(step);
    }
    double window_ns = static_cast<double>(clockNs() - t0);
    PoolStats d = pool.stats().delta(before);
    double busy = 0, steals = 0;
    for (const PoolStats::Worker &w : d.workers) {
        busy += static_cast<double>(w.busy_ns);
        steals += static_cast<double>(w.steals);
    }
    rep.set("threading.busy_frac", busy / window_ns);
    rep.set("threading.imbalance", d.imbalance());
    rep.set("threading.steals_per_step", steals / reps);
    double step_ms = spans.totalMs("nn.step") / reps, attributed = 0;
    for (const std::string &n : names) {
        double f = spans.totalMs("nn." + n + ".fwd") / reps;
        attributed += f;
        rep.set("nn." + n + ".fwd_ms", f);
    }
    rep.set("nn.step_ms", step_ms);
    rep.set("nn.unattributed_ms", step_ms - attributed);
    double conv0_ms = (convs[0]->profile().fp_seconds - conv0_before) * 1e3 / reps;
    rep.set("conv.conv0.fp_ms", conv0_ms);
    rep.set("conv.conv0.fp_gflops", static_cast<double>(convs[0]->spec().flops()) *
                                        kMaxBatch * 1e-6 / conv0_ms);
    rep.set("blas.conv0.sgemm_gflops",
            sgemmGflops(convs[0]->spec(), spans, "blas.conv0.sgemm"));

    // core: the serving-mode tuner, timed on its own.
    Tuner tuner([] {
        TunerOptions o;
        o.reps = kTunerReps;
        return o;
    }());
    std::int64_t measured = obs::Metrics::global()
                                .counter("tuner.measurements").value();
    for (ConvLayer *conv : convs) {
        int sp = spans.begin("core.tune");
        tuner.tuneServing(conv->spec(), kMaxBatch, pool, conv->fusedRelu(),
                          conv->weightSparsity());
        spans.end(sp);
    }
    rep.set("core.tune_s", spans.totalMs("core.tune") * 1e-3);
    rep.set("core.candidates",
            static_cast<double>(obs::Metrics::global()
                                    .counter("tuner.measurements").value() -
                                measured));

    // serve: queue wait = due-time latency minus the FP time of the
    // batch the request rode.
    PhaseStats hs = phaseStats(high, fx.reference, kHighQps);
    std::vector<double> wait;
    for (std::size_t i = 0; i < high.n; ++i) {
        const serve::Request &r = high.reqs[i];
        if (!high.accepted[i] || !r.done.load(std::memory_order_acquire))
            continue;
        std::size_t b = plans[0].bucketForBatch(r.batch);
        wait.push_back(dueLatencyMs(high.due_ns[i], r.done_ns) - fp_ms[b]);
    }
    Summary ws = summarize(std::move(wait));
    rep.set("serve.batch_mean", hs.batch_mean);
    rep.set("serve.queue_wait_ms.p50", ws.p50);
    rep.set("serve.queue_wait_ms.p99", ws.p99);
    rep.set("serve.gen_lag_ms.p99", hs.gen_lag.p99);
    printPhase(rep, "high", kHighQps, hs);
    spans.print(rep);
}

} // namespace

bool
isServeWorkload(const std::string &name)
{
    return name == kServeName;
}

void
runServe(const RunArgs &args, Report &report)
{
    if (args.trace)
        serveTraced(args, report);
    else
        serveUntraced(args, report);
}

} // namespace e2e
