/**
 * @file
 * perfbench: the repository benchmark's workload runner.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--trace-dir DIR] [--launch-ns NS]
 *             [--setup-only 1]
 *
 * Runs one workload (paper_artifacts, chiplet_sim, design_sweep,
 * server_mix) from a single process, checks its outputs, and prints
 * as its last stdout line one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics of a separate traced phase with
 * --trace 1, each followed by workload-specific figures that
 * perfbench/run.py prints but leaves out of its result line, which
 * holds the metrics BENCHMARK.json lists. perfbench/run.py builds this program and calls it,
 * passing --launch-ns (its CLOCK_MONOTONIC time just before the
 * launch) so setup_s covers process start; it also launches set-up
 * only runs (--setup-only 1) and reports the median set-up time.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "util/string_utils.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

using namespace perfbench;

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload paper_artifacts|"
                 "chiplet_sim|design_sweep|server_mix --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-dir DIR] [--launch-ns NS] [--setup-only 1]\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The thread budget of every workload: the process-wide pool gets
    // two workers (ENA_THREADS is read when the pool is first used).
    ::setenv("ENA_THREADS", "2", 1);

    Options opt;
    opt.startNs = monotonicNs();
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value after " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            std::optional<long long> n = ena::parseInt(val);
            if (!n || *n < 0)
                return usage("bad --seed '" + val + "'");
            opt.seed = static_cast<std::uint64_t>(*n);
            have_seed = true;
        } else if (arg == "--seconds") {
            std::optional<double> s = ena::parseDouble(val);
            if (!s || !(*s > 0.0) || *s > 600.0)
                return usage("bad --seconds '" + val + "'");
            opt.seconds = *s;
            have_seconds = true;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("bad --trace '" + val + "'");
            opt.trace = val == "1";
            have_trace = true;
        } else if (arg == "--work-dir") {
            opt.workDir = val;
        } else if (arg == "--trace-dir") {
            opt.traceDir = val;
        } else if (arg == "--launch-ns") {
            std::optional<long long> ns = ena::parseInt(val);
            if (!ns || *ns <= 0 || *ns > opt.startNs)
                return usage("bad --launch-ns '" + val + "'");
            opt.startNs = *ns;
        } else if (arg == "--setup-only") {
            opt.setupOnly = val == "1";
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    int (*run)(const Options &, Report &) = nullptr;
    if (opt.workload == "paper_artifacts")
        run = runPaperArtifacts;
    else if (opt.workload == "chiplet_sim")
        run = runChipletSim;
    else if (opt.workload == "design_sweep")
        run = runDesignSweep;
    else if (opt.workload == "server_mix")
        run = runServerMix;
    else
        return usage("unknown workload '" + opt.workload + "'");

    std::cout << "perfbench " << opt.workload << " seed " << opt.seed
              << " seconds " << opt.seconds << " trace "
              << (opt.trace ? 1 : 0) << " pool threads "
              << ena::ThreadPool::global().threads() << "\n";

    Report report;
    const int rc = run(opt, report);
    if (rc != 0)
        return rc;
    if (!opt.trace && !opt.setupOnly)
        report.metric("peak_rss_mb", peakRssMb(), "MB");

    section(opt.trace ? "per-layer metrics" : "end-to-end metrics");
    report.printTable(std::cout);
    std::cout << report.jsonLine() << std::endl;
    return 0;
}
