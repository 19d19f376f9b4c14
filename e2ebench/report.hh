/**
 * @file
 * What one benchmark run reports: the metric catalogue shared by every
 * workload, the human-readable report lines, and the final one-line
 * JSON result.
 */

#ifndef E2EBENCH_REPORT_HH
#define E2EBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"

namespace e2e {

/** A catalogue entry: metric name, unit, and what it explains. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string note;
};

/** End-to-end metrics (untraced runs). Every workload reports each of
 *  them; the note says what the value is on train_* / serve_mnist. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (traced runs), with the end-to-end metric each
 *  one should move. Workloads that do no work in a layer report 0. */
const std::vector<MetricDef> &perLayerMetrics();

/** Process-level facts recorded next to the results. */
struct Environment
{
    int nproc = 0;
    int threads = 0;
    std::string cpu_model;
    std::string build_type;
    std::string source;  ///< commit or source digest (E2E_SOURCE)
};

Environment probeEnvironment(int threads);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Deterministic stream seed for role @p role of run seed @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t role);

class Report
{
  public:
    /** Human-readable line (stdout, before the JSON result). */
    void line(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    /** Record a catalogue metric; prints it with unit and note. */
    void set(const std::string &name, double value);

    /** Print a workload-specific figure that is not a catalogue metric
     *  (e.g. train.mean_loss, serve.low.p99_ms). */
    void extra(const std::string &name, double value,
               const std::string &unit, const std::string &how = "");

    Tally tally;
    bool correct = true;

    /** Fail the run's correctness with a reason (printed). */
    void fail(const std::string &why);

    /** Print the final JSON line for @p traced mode. Metrics of the
     *  mode's catalogue that were never set are reported as 0.
     *  @return process exit code. */
    int finish(bool traced);

  private:
    std::map<std::string, double> values;
};

} // namespace e2e

#endif // E2EBENCH_REPORT_HH
