/**
 * @file
 * Serial-vs-parallel wall time of the paper's hottest loops: the full
 * DSE grid sweep and the Table II per-application search, on the
 * ThreadPool substrate every study now uses. Also times the memoized
 * DSE sweep (cold and warm explorer memo) against plain serial
 * recomputation with NodeEvaluator::evaluate, in configs/sec.
 *
 * Also cross-checks that the parallel results are element-for-element
 * identical to the single-threaded run, and that the sweep's scores
 * are bit-identical to the scalar recomputation (exit code 1 on either
 * mismatch), so the CI smoke job exercises the determinism guarantee
 * end-to-end.
 *
 * Usage: bench_parallel_sweep [THREADS] [--json <path>]
 *   (THREADS default: ENA_THREADS / all)
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/dse.hh"
#include "util/stats_math.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct DseOutputs
{
    std::vector<DsePoint> points;
    std::vector<TableIIRow> rows;
    double sweepSec = 0.0;
    double tableSec = 0.0;
};

DseOutputs
runAll(const DesignSpaceExplorer &dse, const NodeConfig &best_mean,
       int repeats)
{
    DseOutputs out;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r)
        out.points = dse.sweep(PowerOptConfig::none());
    out.sweepSec = secondsSince(t0) / repeats;

    t0 = std::chrono::steady_clock::now();
    out.rows = dse.tableII(best_mean);
    out.tableSec = secondsSince(t0);
    return out;
}

/** Per-config aggregates over all apps, in grid-enumeration order. */
struct Aggregates
{
    std::vector<double> geomeanFlops;
    std::vector<double> meanBudgetPowerW;
    std::vector<double> maxBudgetPowerW;
};

/** Plain recomputation: per-point evaluate() over every app, the fold
 *  of NodeEvaluator::geomeanFlops/meanBudgetPower/maxBudgetPower. */
Aggregates
scalarOracle(const NodeEvaluator &eval, const DseGrid &grid)
{
    const std::vector<App> &apps = allApps();
    Aggregates a;
    std::vector<double> flops(apps.size());
    std::vector<double> budget(apps.size());
    for (int cu : grid.cus) {
        for (double f : grid.freqsGhz) {
            for (double bw : grid.bwsTbs) {
                NodeConfig cfg;
                cfg.cus = cu;
                cfg.freqGhz = f;
                cfg.bwTbs = bw;
                for (std::size_t k = 0; k < apps.size(); ++k) {
                    EvalResult r = eval.evaluate(cfg, apps[k]);
                    flops[k] = r.perf.flops;
                    budget[k] = r.power.budgetPower();
                }
                double worst = 0.0;
                for (double w : budget)
                    worst = std::max(worst, w);
                a.geomeanFlops.push_back(geomean(flops));
                a.meanBudgetPowerW.push_back(mean(budget));
                a.maxBudgetPowerW.push_back(worst);
            }
        }
    }
    return a;
}

bool
matchesOracle(const std::vector<DsePoint> &points, const Aggregates &o)
{
    if (points.size() != o.geomeanFlops.size())
        return false;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].geomeanFlops != o.geomeanFlops[i] ||
            points[i].meanBudgetPowerW != o.meanBudgetPowerW[i] ||
            points[i].maxBudgetPowerW != o.maxBudgetPowerW[i])
            return false;
    }
    return true;
}

bool
identical(const DseOutputs &a, const DseOutputs &b)
{
    if (a.points.size() != b.points.size() ||
        a.rows.size() != b.rows.size())
        return false;
    for (size_t i = 0; i < a.points.size(); ++i) {
        const DsePoint &p = a.points[i];
        const DsePoint &q = b.points[i];
        if (p.geomeanFlops != q.geomeanFlops ||
            p.meanBudgetPowerW != q.meanBudgetPowerW ||
            p.maxBudgetPowerW != q.maxBudgetPowerW ||
            p.feasible != q.feasible || p.cfg.cus != q.cfg.cus ||
            p.cfg.freqGhz != q.cfg.freqGhz ||
            p.cfg.bwTbs != q.cfg.bwTbs)
            return false;
    }
    for (size_t i = 0; i < a.rows.size(); ++i) {
        const TableIIRow &p = a.rows[i];
        const TableIIRow &q = b.rows[i];
        if (p.app != q.app ||
            p.benefitNoOptPct != q.benefitNoOptPct ||
            p.benefitWithOptPct != q.benefitWithOptPct ||
            p.bestConfig.cus != q.bestConfig.cus ||
            p.bestConfigOpt.cus != q.bestConfigOpt.cus)
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathFromArgs(argc, argv);
    int threads = (argc > 1 && argv[1][0] != '-')
                      ? std::atoi(argv[1])
                      : ThreadPool::defaultThreads();
    if (threads < 1)
        threads = 1;
    const int repeats = 5;

    bench::banner("Parallel sweep engine",
                  "Wall time of the paper DSE grid (sweep + Table II "
                  "search) serial vs parallel, memo vs recompute,\n"
                  "and bitwise serial/parallel/scalar equivalence "
                  "checks.");

    const NodeEvaluator &eval = bench::evaluator();
    DseGrid grid = DseGrid::paperGrid();
    DesignSpaceExplorer dse(eval, grid, cal::nodePowerBudgetW);
    const NodeConfig best_mean = bench::bestMean();

    std::cout << "grid: " << grid.size() << " configurations x "
              << allApps().size() << " applications; hardware threads: "
              << std::thread::hardware_concurrency()
              << "; parallel run uses " << threads << " thread(s)\n\n";

    ThreadPool::setGlobalThreads(1);
    DseOutputs serial = runAll(dse, best_mean, repeats);

    // Memo vs recompute, serial: the scalar oracle recomputes every
    // (config, app); a fresh explorer's sweep fills its memo (cold); a
    // repeated sweep on one explorer is served from it (warm).
    auto t0 = std::chrono::steady_clock::now();
    Aggregates oracle;
    for (int r = 0; r < repeats; ++r)
        oracle = scalarOracle(eval, grid);
    const double scalar_sec = secondsSince(t0) / repeats;

    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
        DesignSpaceExplorer fresh(eval, grid, cal::nodePowerBudgetW);
        fresh.sweep(PowerOptConfig::none());
    }
    const double cold_sec = secondsSince(t0) / repeats;

    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r)
        dse.sweep(PowerOptConfig::none());
    const double warm_sec = secondsSince(t0) / repeats;

    ThreadPool::setGlobalThreads(threads);
    DseOutputs parallel = runAll(dse, best_mean, repeats);

    double sweep_speedup = serial.sweepSec / parallel.sweepSec;
    double table_speedup = serial.tableSec / parallel.tableSec;

    TextTable t({"phase", "serial ms", "parallel ms", "speedup"});
    t.row()
        .add("full-grid sweep")
        .add(serial.sweepSec * 1e3, "%.2f")
        .add(parallel.sweepSec * 1e3, "%.2f")
        .add(sweep_speedup, "%.2fx");
    t.row()
        .add("Table II search")
        .add(serial.tableSec * 1e3, "%.2f")
        .add(parallel.tableSec * 1e3, "%.2f")
        .add(table_speedup, "%.2fx");
    bench::show(t, "parallel_sweep");

    std::cout << "\n";
    const double n = static_cast<double>(grid.size());
    TextTable m({"serial path", "ms/pass", "configs/sec", "vs scalar"});
    m.row()
        .add("scalar recompute (oracle)")
        .add(scalar_sec * 1e3, "%.2f")
        .add(n / scalar_sec, "%.0f")
        .add(1.0, "%.2fx");
    m.row()
        .add("DSE sweep, cold memo")
        .add(cold_sec * 1e3, "%.2f")
        .add(n / cold_sec, "%.0f")
        .add(scalar_sec / cold_sec, "%.2fx");
    m.row()
        .add("DSE sweep, warm memo")
        .add(warm_sec * 1e3, "%.2f")
        .add(n / warm_sec, "%.0f")
        .add(scalar_sec / warm_sec, "%.2fx");
    bench::show(m, "memo_vs_recompute");

    const bool bit_identical = identical(serial, parallel) &&
                               matchesOracle(serial.points, oracle) &&
                               matchesOracle(parallel.points, oracle);
    if (!json_path.empty()) {
        bench::JsonReport report("parallel_sweep");
        report.metric("grid_configs",
                      static_cast<double>(grid.size()));
        report.metric("apps", static_cast<double>(allApps().size()));
        report.metric("threads", threads);
        report.metric("repeats", repeats);
        report.metric("sweep_serial_ms", serial.sweepSec * 1e3);
        report.metric("sweep_parallel_ms", parallel.sweepSec * 1e3);
        report.metric("sweep_speedup", sweep_speedup);
        report.metric("tableII_serial_ms", serial.tableSec * 1e3);
        report.metric("tableII_parallel_ms", parallel.tableSec * 1e3);
        report.metric("tableII_speedup", table_speedup);
        report.metric("scalar_configs_per_sec", n / scalar_sec);
        report.metric("memo_cold_configs_per_sec", n / cold_sec);
        report.metric("memo_warm_configs_per_sec", n / warm_sec);
        report.metric("bit_identical", bit_identical ? 1.0 : 0.0);
        if (!report.writeTo(json_path))
            return 1;
    }

    if (!bit_identical) {
        std::cerr << "\nFAIL: parallel results differ from serial "
                     "results, or sweep scores differ from the scalar "
                     "oracle\n";
        return 1;
    }
    std::cout << "\ndeterminism: parallel output is element-for-element "
                 "identical to serial output, and sweep scores to the "
                 "scalar oracle\n";

    // The speedup gate only applies where parallelism is physically
    // available (acceptance: >= 2x with 4+ hardware threads).
    if (std::thread::hardware_concurrency() >= 4 && threads >= 4) {
        if (sweep_speedup < 2.0) {
            std::cerr << "FAIL: sweep speedup " << sweep_speedup
                      << "x < 2x with " << threads << " threads\n";
            return 1;
        }
        std::cout << "speedup gate: " << sweep_speedup
                  << "x >= 2x with " << threads << " threads — ok\n";
    } else {
        std::cout << "speedup gate skipped (need 4+ hardware threads; "
                     "this host has "
                  << std::thread::hardware_concurrency() << ")\n";
    }
    return 0;
}
