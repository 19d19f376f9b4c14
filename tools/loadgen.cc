/**
 * @file
 * loadgen — open-loop load sweep against the serving runtime.
 *
 * Drives a forward-only serving instance set with Poisson arrivals at
 * one or more offered rates and reports QPS, goodput against the SLO,
 * and exact latency percentiles per point. A sweep over increasing
 * rates traces the goodput-vs-load curve, including the overload knee
 * where goodput detaches from offered load.
 *
 * With --assert-no-drops and/or --max-p99-ms the tool turns into a
 * smoke check: a fixed-seed low-rate run must complete every request
 * inside the bound or the exit status is non-zero (wired into ctest).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "data/suites.hh"
#include "data/synthetic.hh"
#include "obs/trace.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace spg;

namespace {

NetConfig
resolveNet(const std::string &net)
{
    if (net == "mnist")
        return parseNetConfig(mnistNetConfigText());
    if (net == "cifar10")
        return parseNetConfig(cifar10NetConfigText());
    if (net == "imagenet100")
        return parseNetConfig(imagenet100NetConfigText());
    return parseNetConfigFile(net);
}

std::vector<double>
parseRates(const std::string &list)
{
    std::vector<double> rates;
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string item = list.substr(pos, comma - pos);
        if (!item.empty())
            rates.push_back(std::stod(item));
        pos = comma + 1;
    }
    if (rates.empty())
        fatal("--rates must name at least one rate");
    return rates;
}

void
writeJson(const std::string &path, const std::string &net,
          const serve::ServerOptions &sopts, double slo_ms,
          const std::vector<serve::LoadGenResult> &points)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write '%s'", path.c_str());
    std::fprintf(f, "{\n  \"net\": \"%s\",\n", net.c_str());
    std::fprintf(f, "  \"instances\": %d,\n  \"max_batch\": %lld,\n",
                 sopts.instances,
                 static_cast<long long>(sopts.max_batch));
    std::fprintf(f, "  \"budget_ms\": %g,\n  \"slo_ms\": %g,\n",
                 sopts.batch_budget_ms, slo_ms);
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const serve::LoadGenResult &p = points[i];
        std::fprintf(
            f,
            "    {\"offered_qps\": %.3f, \"qps\": %.3f, "
            "\"goodput_qps\": %.3f, \"p50_ms\": %.4f, "
            "\"p95_ms\": %.4f, \"p99_ms\": %.4f, "
            "\"mean_batch\": %.3f, \"submitted\": %lld, "
            "\"completed\": %lld, \"rejected\": %lld}%s\n",
            p.offered_qps, p.qps, p.goodput_qps, p.p50_ms, p.p95_ms,
            p.p99_ms, p.mean_batch,
            static_cast<long long>(p.submitted),
            static_cast<long long>(p.completed),
            static_cast<long long>(p.rejected),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromEnv();
    obs::setCurrentThreadName("main");

    CliParser cli("loadgen");
    cli.addString("net", "mnist",
                  "mnist | cifar10 | imagenet100 | config file path");
    cli.addString("rates", "50",
                  "comma-separated offered rates (requests/s)");
    cli.addDouble("duration", 1.0, "arrival window per rate, seconds");
    cli.addInt("instances", 1, "concurrent model instances");
    cli.addInt("max-batch", 8, "largest coalesced batch");
    cli.addDouble("budget-ms", 2.0, "dynamic-batching latency budget");
    cli.addInt("queue-cap", 256, "request queue bound");
    cli.addInt("threads", 1, "pool threads per instance");
    cli.addInt("tuner-reps", 3, "timed reps per tuner measurement");
    cli.addBool("no-tune", false, "skip the serving tuner");
    cli.addInt("dataset-size", 64, "synthetic examples");
    cli.addInt("seed", 1234, "arrival / image sampling seed");
    cli.addDouble("slo-ms", 50.0, "latency SLO defining goodput");
    cli.addString("json-file", "", "write the sweep as JSON here");
    cli.addBool("assert-no-drops", false,
                "fail when any request is rejected or lost");
    cli.addDouble("max-p99-ms", 0.0,
                  "fail when any point's p99 exceeds this (0 = off)");
    cli.parse(argc, argv);

    NetConfig config = resolveNet(cli.getString("net"));
    serve::ServerOptions sopts;
    sopts.instances = static_cast<int>(cli.getInt("instances"));
    sopts.max_batch = cli.getInt("max-batch");
    sopts.batch_budget_ms = cli.getDouble("budget-ms");
    sopts.queue_capacity =
        static_cast<std::size_t>(cli.getInt("queue-cap"));
    sopts.threads_per_instance =
        static_cast<int>(cli.getInt("threads"));
    sopts.tune = !cli.getBool("no-tune");
    sopts.tuner_reps = static_cast<int>(cli.getInt("tuner-reps"));

    serve::Server server(config, sopts);
    server.warmup();
    server.start();

    Dataset dataset =
        [&] {
            SyntheticSpec spec;
            spec.name = config.name + "-serve";
            spec.channels = config.channels;
            spec.height = config.height;
            spec.width = config.width;
            spec.classes = config.classes > 0
                               ? static_cast<int>(config.classes)
                               : 10;
            spec.count = cli.getInt("dataset-size");
            return makeSynthetic(spec);
        }();

    std::vector<double> rates = parseRates(cli.getString("rates"));
    std::vector<serve::LoadGenResult> points;
    TablePrinter table("open-loop sweep: " + config.name,
                       {"offered", "qps", "goodput", "p50 ms",
                        "p99 ms", "batch", "rejected"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        serve::LoadGenOptions lopts;
        lopts.rate_qps = rates[i];
        lopts.duration_s = cli.getDouble("duration");
        lopts.seed = static_cast<std::uint64_t>(cli.getInt("seed")) +
                     i * 7919;
        lopts.slo_ms = cli.getDouble("slo-ms");
        points.push_back(serve::runOpenLoop(server, dataset, lopts));
        const serve::LoadGenResult &p = points.back();
        table.addRow({TablePrinter::fmt(p.offered_qps, 1),
                      TablePrinter::fmt(p.qps, 1),
                      TablePrinter::fmt(p.goodput_qps, 1),
                      TablePrinter::fmt(p.p50_ms, 2),
                      TablePrinter::fmt(p.p99_ms, 2),
                      TablePrinter::fmt(p.mean_batch, 2),
                      std::to_string(p.rejected)});
    }
    server.stop();
    table.print();

    if (!cli.getString("json-file").empty())
        writeJson(cli.getString("json-file"), config.name, sopts,
                  cli.getDouble("slo-ms"), points);

    int rc = 0;
    for (const serve::LoadGenResult &p : points) {
        if (cli.getBool("assert-no-drops") &&
            (p.rejected != 0 || p.completed != p.submitted)) {
            std::fprintf(stderr,
                         "FAIL: offered %.1f qps dropped requests "
                         "(submitted %lld completed %lld rejected "
                         "%lld)\n",
                         p.offered_qps,
                         static_cast<long long>(p.submitted),
                         static_cast<long long>(p.completed),
                         static_cast<long long>(p.rejected));
            rc = 1;
        }
        double max_p99 = cli.getDouble("max-p99-ms");
        if (max_p99 > 0 && p.p99_ms > max_p99) {
            std::fprintf(stderr,
                         "FAIL: offered %.1f qps p99 %.2fms exceeds "
                         "%.2fms\n",
                         p.offered_qps, p.p99_ms, max_p99);
            rc = 1;
        }
    }
    obs::finalize();
    return rc;
}
