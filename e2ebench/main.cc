/**
 * @file
 * e2ebench: the end-to-end training + serving benchmark.
 *
 *   e2ebench --workload <train_mnist|train_cifar10|serve_mnist>
 *            --seed <n> --seconds <s> --trace <0|1>
 *   e2ebench --selftest
 *
 * Normally launched through run.py, which builds it and pins the
 * environment (SPG_PERF=off, SPG_LOG=quiet, SPG_TRACE unset). Prints a
 * human-readable report, then one JSON line: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hh"

namespace e2e {
namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

/** The benchmark's own arithmetic, checked before every run. */
int
selfTest()
{
    failures = 0;
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(nearestRank(hundred, 0.5) == 50, "p50 of 1..100 is 50");
    expect(nearestRank(hundred, 0.99) == 99, "p99 of 1..100 is 99");
    expect(nearestRank(hundred, 1.0) == 100, "p100 is the max");
    expect(nearestRank(hundred, 0.0) == 1, "p0 clamps to the min");
    expect(nearestRank({}, 0.5) == 0, "empty sample gives 0");
    expect(nearestRank({7}, 0.99) == 7, "single sample");
    expect(median({3, 1, 2}) == 2, "median of three");
    expect(median({4, 1, 3, 2}) == 2, "even median is the lower middle");

    // 0.99 * 1000 is 990.0000000000001 in binary; rank must stay 990.
    expect(samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
    expect(samplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
    expect(tailQuantile(1000) == 0.99, "1000 samples reach p99");
    expect(tailQuantile(999) == 0.9, "999 samples stop at p90");
    expect(tailQuantile(10010) == 0.999, "10010 samples reach p99.9");
    expect(tailQuantile(20) == 0.5, "20 samples reach only p50");
    expect(tailQuantile(19) == 0, "19 samples reach nothing");
    expect(quantileLabel(0.999) == "p99.9", "p99.9 label");
    Summary s = summarize(hundred);
    expect(s.n == 100 && s.p50 == 50 && !s.p99_ok && s.tail_q == 0.9 &&
               s.tail == 90,
           "summary of 100 samples tails at p90");

    // Due-time latency exposes a generator stall: four requests due at
    // 0..3 ms all go out at 3 ms and finish at 3.5 ms. Timed from the
    // submit stamp every one looks like 0.5 ms.
    std::vector<double> from_due, from_submit;
    for (int i = 0; i < 4; ++i) {
        from_due.push_back(dueLatencyMs(i * 1000000, 3500000));
        from_submit.push_back(dueLatencyMs(3000000, 3500000));
    }
    expect(near(from_due[0], 3.5) && near(from_due[3], 0.5),
           "due-time latency of the stalled burst");
    expect(near(median(from_due), 1.5) && near(median(from_submit), 0.5),
           "coordinated omission hides the stall");

    Tally t;
    expect(t.failedFrac() == 1.0, "no attempts counts as failed");
    t.add(10, 0);
    t.add(10, 2);
    expect(t.attempted == 20 && t.failed == 2 && near(t.failedFrac(), 0.1),
           "failed_frac = failed / attempted");
    expect(classify(false, false, -1, 3) == Outcome::Rejected,
           "rejected request");
    expect(classify(true, false, -1, 3) == Outcome::Incomplete,
           "accepted but never done");
    expect(classify(true, true, 2, 3) == Outcome::WrongPrediction,
           "wrong prediction");
    expect(classify(true, true, 3, 3) == Outcome::Ok, "good request");
    return failures;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --selftest\n",
                 why);
    return 2;
}

/** The launcher pins these; a run under other settings is refused. */
const char *
environmentProblem()
{
    const char *perf = std::getenv("SPG_PERF");
    const char *log = std::getenv("SPG_LOG");
    if (!perf || std::strcmp(perf, "off") != 0)
        return "SPG_PERF must be off";
    if (!log || std::strcmp(log, "quiet") != 0)
        return "SPG_LOG must be quiet";
    if (std::getenv("SPG_TRACE"))
        return "SPG_TRACE must be unset";
    return nullptr;
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    RunArgs args;
    bool have_workload = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--selftest")
            return selfTest() == 0 ? 0 : 1;
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            args.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            args.trace = v == "1";
            have_trace = true;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_workload || !have_trace)
        return usage("--workload and --trace are required");
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");
    if (!isTrainWorkload(args.workload) && !isServeWorkload(args.workload))
        return usage(("unknown workload " + args.workload).c_str());
    if (const char *why = environmentProblem())
        return usage(why);
    if (selfTest() != 0)
        return 1;

    args.threads = std::min(4, static_cast<int>(
                                   std::thread::hardware_concurrency()));
    if (isServeWorkload(args.workload))
        args.threads = 1;
    Report report;
    Environment env = probeEnvironment(args.threads);
    report.line("e2ebench %s seed %llu seconds %g trace %d",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    report.line("env: nproc %d, threads %d, cpu '%s', build %s, source %s, "
                "SPG_PERF=off SPG_LOG=quiet SPG_TRACE unset",
                env.nproc, env.threads, env.cpu_model.c_str(),
                env.build_type.c_str(), env.source.c_str());
    try {
        if (isTrainWorkload(args.workload))
            runTrain(args, report);
        else
            runServe(args, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
    return report.finish(args.trace);
}
