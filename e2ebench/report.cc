#include "report.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace e2e {

namespace {

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m = {
        {"threading.busy_frac", "ratio",
         "pool busy / (threads x step wall); moves throughput_per_s"},
        {"threading.imbalance", "ratio",
         "max/mean worker busy over the steps; moves throughput_per_s"},
        {"threading.steals_per_step", "count",
         "work-stealing claims per step; moves throughput_per_s"},
    };
    const char *convs[] = {"conv0", "conv1"};
    for (const char *c : convs)
        m.push_back({std::string("blas.") + c + ".sgemm_gflops", "GFLOP/s",
                     "single-thread sgemm at the conv's unfolded FP "
                     "shape; moves throughput_per_s"});
    for (const char *c : convs) {
        for (const char *ph : {"fp", "bpd", "bpw"}) {
            m.push_back({std::string("conv.") + c + "." + ph + "_ms", "ms",
                         "ConvLayer::profile() delta per step; moves "
                         "throughput_per_s"});
            m.push_back({std::string("conv.") + c + "." + ph + "_gflops",
                         "GFLOP/s",
                         "dense-equivalent ConvSpec flops / phase time; "
                         "moves throughput_per_s"});
        }
    }
    for (const char *b : {"b1", "b2", "b4", "b8"})
        m.push_back({std::string("conv.conv0.fp_ms.") + b, "ms",
                     "conv0 FP at a serving bucket; moves serve "
                     "throughput_per_s and latency_tail_ms"});
    for (const char *c : convs)
        m.push_back({std::string("sparse.") + c + ".error_sparsity", "ratio",
                     "lastErrorSparsity(); moves throughput_per_s"});
    m.push_back({"sparse.plan_hit_frac", "ratio",
                 "SparsePlanCache hits / lookups; moves throughput_per_s"});
    m.push_back({"sparse.encode_ms", "ms",
                 "CT-CSR encode time per step; moves throughput_per_s"});
    for (const char *l :
         {"conv0", "pool0", "conv1", "pool1", "fc0", "softmax"}) {
        m.push_back({std::string("nn.") + l + ".fwd_ms", "ms",
                     "Layer::forward per step; moves throughput_per_s"});
        m.push_back({std::string("nn.") + l + ".bwd_ms", "ms",
                     "BackwardHook interval per step; moves "
                     "throughput_per_s"});
    }
    for (const char *c : convs)
        m.push_back({std::string("nn.") + c + ".bp_gap_ms", "ms",
                     "hook BP interval minus profile() BP time; moves "
                     "throughput_per_s"});
    m.push_back({"nn.update_ms", "ms",
                 "Network::applyUpdate per step; moves throughput_per_s"});
    m.push_back({"nn.step_ms", "ms",
                 "traced step wall time (serve: Network::forward at batch "
                 "8); moves throughput_per_s"});
    m.push_back({"nn.unattributed_ms", "ms",
                 "step minus every attributed part; moves "
                 "throughput_per_s"});
    m.push_back({"data.fill_ms", "ms",
                 "batch Tensor + Dataset::fillBatch per step; moves "
                 "throughput_per_s (tiny)"});
    m.push_back({"core.tune_s", "s",
                 "Tuner tune/retune/tuneServing time; moves setup_s"});
    m.push_back({"core.retunes", "count", "BP re-tunes; moves setup_s"});
    m.push_back({"core.candidates", "count",
                 "engine measurements the tuner made; moves setup_s"});
    m.push_back({"serve.batch_mean", "count",
                 "mean Request::batch at the high rate; moves serve "
                 "latency_p50_ms"});
    for (const char *b : {"b1", "b2", "b4", "b8"})
        m.push_back({std::string("serve.fp_ms.") + b, "ms",
                     "Network::forward on a forward-only replica at the "
                     "bucket's engines; moves serve throughput_per_s"});
    m.push_back({"serve.queue_wait_ms.p50", "ms",
                 "due-time latency minus FP time at the request's batch; "
                 "moves serve latency_p50_ms"});
    m.push_back({"serve.queue_wait_ms.p99", "ms",
                 "due-time latency minus FP time at the request's batch; "
                 "moves serve latency_tail_ms"});
    m.push_back({"serve.gen_lag_ms.p99", "ms",
                 "how late the generator submitted vs the due time; "
                 "moves serve latency_tail_ms"});
    m.push_back({"serve.warmup_s", "s", "Server::warmup(); moves setup_s"});
    m.push_back({"trace.overhead_frac", "ratio",
                 "traced / untraced step time - 1 (train only); moves no "
                 "end-to-end metric"});
    return m;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"setup_s", "s",
         "median set-up: construction + tuning + retunes (train) or "
         "Server construction + warmup (serve)"},
        {"throughput_per_s", "1/s",
         "train.images_per_s (median over cycles) or "
         "serve.capacity_qps (median over probes)"},
        {"latency_p50_ms", "ms",
         "train: median ms per training step; serve: serve.high.p50_ms "
         "from due time"},
        {"latency_tail_ms", "ms",
         "train: highest percentile of per-epoch step ms with >=10 "
         "samples beyond it; serve: serve.high.p99_ms from due time, "
         "median over windows of ~1500 requests"},
    };
    // peak_rss_mb is printed but not gated: between runs of the same
    // length it moves 72-87 MiB (train_mnist) and 216-238 MiB
    // (train_cifar10), and on serve_mnist it grows ~5 MiB per Server
    // built in the process (every serving thread keeps a 2^16-event
    // trace ring even with tracing off).
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = buildPerLayer();
    return m;
}

Environment
probeEnvironment(int threads)
{
    Environment env;
    env.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    env.threads = threads;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                env.cpu_model = line.substr(colon + 2);
            break;
        }
    }
    if (env.cpu_model.empty())
        env.cpu_model = "unknown";
#ifdef E2E_BUILD_TYPE
    env.build_type = E2E_BUILD_TYPE;
#else
    env.build_type = "unknown";
#endif
    const char *source = std::getenv("E2E_SOURCE");
    env.source = source ? source : "unknown";
    return env;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t role)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + role * 0xbf58476d1ce4e5b9ull +
                      0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Report::line(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

void
Report::set(const std::string &name, double value)
{
    values[name] = value;
    std::string unit = "?", note;
    for (const auto *cat : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *cat)
            if (d.name == name) {
                unit = d.unit;
                note = d.note;
            }
    line("metric %-28s %14.6g %-8s %s", name.c_str(), value, unit.c_str(),
         note.c_str());
}

void
Report::extra(const std::string &name, double value, const std::string &unit,
              const std::string &how)
{
    line("  %-30s %14.6g %-8s %s", name.c_str(), value, unit.c_str(),
         how.c_str());
}

void
Report::fail(const std::string &why)
{
    correct = false;
    line("CHECK FAILED: %s", why.c_str());
}

int
Report::finish(bool traced)
{
    const auto &cat = traced ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDef &d : cat) {
        auto it = values.find(d.name);
        double v = 0;
        if (it != values.end()) {
            v = it->second;
        } else if (!traced) {
            fail("end-to-end metric " + d.name + " was not measured");
        }
        if (!std::isfinite(v)) {
            fail("metric " + d.name + " is not finite");
            v = -1;
        }
        // Catalogue names and units need no JSON escaping.
        char entry[256];
        std::snprintf(entry, sizeof(entry),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", d.name.c_str(), v,
                      d.unit.c_str());
        metrics += entry;
    }
    if (tally.attempted < 1)
        fail("no operation was attempted");
    line("failed_frac %.6g (%lld failed of %lld attempted)",
         tally.failedFrac(), static_cast<long long>(tally.failed),
         static_cast<long long>(tally.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(std::max<std::int64_t>(tally.attempted, 1)),
                static_cast<long long>(tally.failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace e2e
