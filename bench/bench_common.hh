/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench regenerates one table or figure of the paper. Because
 * the host running it has far fewer cores than the paper's 16-core
 * machine, each bench reports up to two kinds of numbers, clearly
 * labelled:
 *
 *  - SIMULATED: the modeled 16-core Xeon E5-2650 (simcpu) — these are
 *    the rows/series the paper's multicore figures show;
 *  - MEASURED: real kernel executions on the host — ground truth
 *    validating the single-core claims and calibrating the model.
 */

#ifndef SPG_BENCH_COMMON_HH
#define SPG_BENCH_COMMON_HH

#include <chrono>
#include <string>

#include "simcpu/conv_model.hh"
#include "threading/thread_pool.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace spg {

/** Core counts the paper's scalability figures sweep. */
inline const int kCoreSweep[] = {1, 2, 4, 8, 16};

/** Sparsity sweep of Fig. 4f (paper x-axis). */
inline const double kSparsitySweep[] = {0.0,  0.5,  0.75, 0.88,
                                        0.94, 0.97, 0.99};

/** Register the flags every bench shares. */
inline void
addCommonFlags(CliParser &cli)
{
    cli.addBool("csv", false, "also emit CSV to stdout");
    cli.addString("csv-file", "", "write CSV to this path");
    cli.addInt("batch", 64, "simulated minibatch size");
}

/** Print the table and honour the CSV flags. */
inline void
emit(const CliParser &cli, const TablePrinter &table)
{
    table.print();
    if (cli.getBool("csv"))
        table.printCsv();
    std::string path = cli.getString("csv-file");
    if (!path.empty())
        table.writeCsv(path);
}

/**
 * Keep every participant of @p pool busy for about 2 s. After an idle
 * spell, a host can run the first second or so of multi-threaded work
 * at a fraction of its settled speed; a bench whose first timed cells
 * are short calls this before them so they do not time that ramp.
 */
inline void
warmHost(ThreadPool &pool)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    pool.parallelFor(pool.threads(), [&](std::int64_t, std::int64_t,
                                         int) {
        volatile double x = 1.0;
        while (std::chrono::steady_clock::now() < deadline)
            for (int i = 0; i < 1000; ++i)
                x = x * 1.0000001 + 1e-9;
    });
}

} // namespace spg

#endif // SPG_BENCH_COMMON_HH
