/**
 * @file
 * Design-space exploration (paper Section V intro, Section VI, Table II).
 *
 * Sweeps CU count x GPU frequency x in-package bandwidth (the paper's
 * "over a thousand different hardware configurations"), then finds
 *
 *  - the best-mean configuration: highest geometric-mean performance
 *    across all applications with the across-application mean of the
 *    budget-scope node power held under 160 W, and
 *  - the best per-application configuration: highest performance for a
 *    single kernel with that kernel's own budget-scope power under
 *    160 W (Table II's oracle reconfiguration).
 */

#ifndef ENA_CORE_DSE_HH
#define ENA_CORE_DSE_HH

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "common/node_config.hh"
#include "core/eval_memo.hh"
#include "core/node_evaluator.hh"
#include "core/sweep_journal.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** The swept axes. */
struct DseGrid
{
    std::vector<int> cus;
    std::vector<double> freqsGhz;
    std::vector<double> bwsTbs;

    /**
     * The paper's sweep: CUs 192..384 step 32 (area budget 384),
     * frequency 0.7..1.5 GHz step 100 MHz plus the 925 MHz point that
     * appears in Table II, bandwidth 1..7 TB/s.
     */
    static DseGrid paperGrid();

    size_t
    size() const
    {
        return cus.size() * freqsGhz.size() * bwsTbs.size();
    }
};

/** One candidate's scores. */
struct DsePoint
{
    NodeConfig cfg;
    double geomeanFlops = 0.0;
    double meanBudgetPowerW = 0.0;
    double maxBudgetPowerW = 0.0;   ///< worst application's budget power
    bool feasible = false;          ///< maxBudgetPowerW <= budget

    /**
     * False when the point was quarantined: its config failed
     * validation or its evaluation threw. Quarantined points carry the
     * diagnostic in @p error, score zero, and are never feasible — the
     * sweep completes instead of dying with the whole grid's work.
     */
    bool ok = true;
    std::string error;

    /** The scores a sweep journal stores (the key pins the config). */
    static const SweepCellFields<DsePoint> &
    journalFields()
    {
        static const SweepCellFields<DsePoint> f{
            {&DsePoint::geomeanFlops, &DsePoint::meanBudgetPowerW,
             &DsePoint::maxBudgetPowerW},
            {&DsePoint::feasible}};
        return f;
    }
};

/** Best configuration for a single application. */
struct AppBest
{
    NodeConfig cfg;
    double flops = 0.0;
    double budgetPowerW = 0.0;
};

/** One Table II row. */
struct TableIIRow
{
    App app;
    NodeConfig bestConfig;           ///< without power optimizations
    double benefitNoOptPct = 0.0;    ///< perf gain over best-mean config
    NodeConfig bestConfigOpt;        ///< with power optimizations
    double benefitWithOptPct = 0.0;  ///< gain incl. optimizations, vs the
                                     ///< no-opt best-mean config
};

/**
 * All sweeps run on the process-wide ThreadPool (ENA_THREADS); results
 * are deterministic and identical to a single-threaded run because
 * every grid point is scored independently into its own slot and all
 * argmax reductions happen on the caller in grid-enumeration order.
 * sweep() is a runSweep (core/sweep_journal.hh): journal replay and
 * validation serially, scoring on the pool, per-point quarantine and
 * journal append.
 *
 * Grid points are scored one per pool task through
 * NodeEvaluator::evaluateMemo, with a sweep-level EvalMemoCache shared
 * across sweeps and searches of the same explorer: repeated
 * evaluations of a (config, app) pair (tableII's per-app searches,
 * repeated sweeps) are served from the cache, which is bit-identical
 * to recomputation by construction (see core/eval_memo.hh).
 */
class DesignSpaceExplorer
{
  public:
    DesignSpaceExplorer(const NodeEvaluator &eval, DseGrid grid,
                        double budget_w);

    /**
     * Score every grid point (for inspection / calibration). Invalid
     * or throwing points are quarantined (DsePoint::ok == false), not
     * fatal. Consults ENA_SWEEP_JOURNAL: when set, finished points
     * stream to that journal and already-journaled points are skipped,
     * so a killed sweep resumes where it left off.
     */
    std::vector<DsePoint> sweep(const PowerOptConfig &opts) const;

    /** Same, with an explicit journal (null = no checkpointing). */
    std::vector<DsePoint> sweep(const PowerOptConfig &opts,
                                SweepJournal *journal) const;

    /**
     * Highest geomean-performance configuration whose worst-case
     * (max-over-applications) budget power stays under the budget.
     * fatal() when no grid point satisfies it.
     */
    NodeConfig findBestMean(const PowerOptConfig &opts) const;

    /** Highest-performance feasible configuration for one kernel. */
    AppBest findBestForApp(App app, const PowerOptConfig &opts) const;

    /**
     * Reproduce Table II: per-application best configs and their
     * performance benefit over the given best-mean configuration,
     * without and with the Section V-E power optimizations.
     */
    std::vector<TableIIRow> tableII(const NodeConfig &best_mean) const;

    const DseGrid &grid() const { return grid_; }

    /** The sweep-level memo cache (telemetry: dse.memo_hits/_misses). */
    const EvalMemoCache &memoCache() const { return memo_; }

  private:
    /** The grid point at flat index i (row-major over cus/freq/bw). */
    NodeConfig configAt(std::size_t index,
                        const PowerOptConfig &opts) const;

    const NodeEvaluator &eval_;
    DseGrid grid_;
    double budgetW_;
    mutable EvalMemoCache memo_;
};

} // namespace ena

#endif // ENA_CORE_DSE_HH
