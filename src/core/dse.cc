#include "core/dse.hh"

#include <algorithm>

#include "common/calibration.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

telemetry::Counter &
configsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "dse.configs_evaluated",
        "grid points scored across all DSE sweeps and searches");
    return c;
}

/** Publish the configs/sec rate of the sweep that just finished. */
void
publishSweepRate(std::size_t n, double t0_us)
{
    if (!telemetry::metricsEnabled())
        return;
    double sec = (telemetry::nowUs() - t0_us) * 1e-6;
    if (sec > 0.0) {
        telemetry::gauge("dse.configs_per_sec",
                         "grid throughput of the most recent DSE sweep")
            .set(static_cast<double>(n) / sec);
    }
}

} // anonymous namespace

DseGrid
DseGrid::paperGrid()
{
    DseGrid g;
    for (int c = 192; c <= cal::maxCusPerNode; c += 32)
        g.cus.push_back(c);
    g.freqsGhz = {0.7, 0.8, 0.9, 0.925, 1.0, 1.1,
                  1.2, 1.3, 1.4, 1.5};
    g.bwsTbs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    return g;
}

DesignSpaceExplorer::DesignSpaceExplorer(const NodeEvaluator &eval,
                                         DseGrid grid, double budget_w)
    : eval_(eval), grid_(std::move(grid)), budgetW_(budget_w)
{
    if (grid_.size() == 0)
        ENA_FATAL("empty DSE grid");
}

NodeConfig
DesignSpaceExplorer::configAt(std::size_t index,
                              const PowerOptConfig &opts) const
{
    // Row-major over (cus, freq, bw): the same enumeration order the
    // original serial triple loop used, so index-order reductions
    // reproduce its results exactly.
    const std::size_t nf = grid_.freqsGhz.size();
    const std::size_t nb = grid_.bwsTbs.size();
    NodeConfig cfg;
    cfg.cus = grid_.cus[index / (nf * nb)];
    cfg.freqGhz = grid_.freqsGhz[(index / nb) % nf];
    cfg.bwTbs = grid_.bwsTbs[index % nb];
    cfg.opts = opts;
    return cfg;
}

std::vector<DsePoint>
DesignSpaceExplorer::sweep(const PowerOptConfig &opts) const
{
    auto journal = SweepJournal::openFromEnvironment();
    return sweep(opts, journal.get());
}

std::vector<DsePoint>
DesignSpaceExplorer::sweep(const PowerOptConfig &opts,
                           SweepJournal *journal) const
{
    // runSweep replays and validates serially, then scores the
    // survivors one pool task per point through the sweep-level memo
    // cache. All argmax reductions happen elsewhere in index order, so
    // the output is identical to the serial enumeration.
    ENA_SPAN("dse", "sweep");
    const double t0 = telemetry::nowUs();
    const std::size_t n = grid_.size();
    const std::vector<App> &apps = allApps();
    const int opts_bits = powerOptBits(opts);

    std::vector<DsePoint> points = runSweep(
        n, journal, DsePoint::journalFields(), "DSE",
        [&](std::size_t i) {
            DsePoint p;
            p.cfg = configAt(i, opts);
            return p;
        },
        [&](std::size_t i, const DsePoint &p) {
            return strformat("dse[%zu]:%s:o%d", i, p.cfg.label().c_str(),
                             opts_bits);
        },
        [](std::size_t, const DsePoint &p) { return p.cfg.tryValidate(); },
        [&](std::size_t, DsePoint &p) {
            // The fold of NodeEvaluator::geomeanFlops/meanBudgetPower/
            // maxBudgetPower, over one memoized evaluation per app.
            std::vector<double> flops(apps.size()), budget(apps.size());
            for (std::size_t a = 0; a < apps.size(); ++a) {
                EvalResult r = eval_.evaluateMemo(p.cfg, apps[a], memo_);
                flops[a] = r.perf.flops;
                budget[a] = r.power.budgetPower();
            }
            p.geomeanFlops = geomean(flops);
            p.meanBudgetPowerW = mean(budget);
            p.maxBudgetPowerW = 0.0;
            for (double w : budget)
                p.maxBudgetPowerW = std::max(p.maxBudgetPowerW, w);
            p.feasible = p.maxBudgetPowerW <= budgetW_;
        });

    configsCounter().add(n);
    publishSweepRate(n, t0);
    return points;
}

NodeConfig
DesignSpaceExplorer::findBestMean(const PowerOptConfig &opts) const
{
    // Score in parallel, pick the winner in index order on the caller
    // (same strict-greater tie-breaking as the old serial loop).
    ENA_SPAN("dse", "find_best_mean");
    std::vector<DsePoint> points = sweep(opts);
    const DsePoint *best = nullptr;
    for (const DsePoint &p : points) {
        if (!p.feasible)
            continue;
        if (!best || p.geomeanFlops > best->geomeanFlops)
            best = &p;
    }
    if (!best)
        ENA_FATAL("no feasible configuration under ", budgetW_,
                  " W budget");
    return best->cfg;
}

AppBest
DesignSpaceExplorer::findBestForApp(App app,
                                    const PowerOptConfig &opts) const
{
    telemetry::ScopedSpan span(
        "dse", std::string("find_best_for_app:") + appName(app));
    const std::size_t n = grid_.size();
    std::vector<double> flops(n), budget(n);

    ThreadPool::global().parallelFor(n, [&](std::size_t i) {
        EvalResult r = eval_.evaluateMemo(configAt(i, opts), app, memo_);
        flops[i] = r.perf.flops;
        budget[i] = r.power.budgetPower();
    });
    configsCounter().add(n);

    std::optional<AppBest> best;
    for (std::size_t i = 0; i < n; ++i) {
        if (budget[i] > budgetW_)
            continue;
        if (!best || flops[i] > best->flops) {
            best = AppBest{configAt(i, opts), flops[i], budget[i]};
        }
    }
    if (!best)
        ENA_FATAL("no feasible configuration for ", appName(app));
    return *best;
}

std::vector<TableIIRow>
DesignSpaceExplorer::tableII(const NodeConfig &best_mean) const
{
    // One task per application row; the nested findBestForApp sweeps
    // run inline on whichever thread owns the row.
    ENA_SPAN("dse", "table2");
    const std::vector<App> &apps = allApps();
    return ThreadPool::global().parallelMap(
        apps.size(), [&](std::size_t i) {
            App app = apps[i];
            telemetry::ScopedSpan span(
                "dse", std::string("table2_row:") + appName(app));
            TableIIRow row;
            row.app = app;

            double base = eval_.evaluate(best_mean, app).perf.flops;

            AppBest no_opt = findBestForApp(app, PowerOptConfig::none());
            row.bestConfig = no_opt.cfg;
            row.benefitNoOptPct = (no_opt.flops / base - 1.0) * 100.0;

            AppBest with_opt = findBestForApp(app, PowerOptConfig::all());
            row.bestConfigOpt = with_opt.cfg;
            row.benefitWithOptPct =
                (with_opt.flops / base - 1.0) * 100.0;

            return row;
        });
}

} // namespace ena
