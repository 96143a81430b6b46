/**
 * @file
 * Combined performance + power evaluation of one ENA node configuration
 * for one application: the unit of work for every study and the DSE.
 * evaluate() is the only way a (config, application) pair is scored;
 * evaluateMemo() routes the same computation through a memo cache.
 */

#ifndef ENA_CORE_NODE_EVALUATOR_HH
#define ENA_CORE_NODE_EVALUATOR_HH

#include <vector>

#include "common/node_config.hh"
#include "core/perf_model.hh"
#include "power/node_power.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

class EvalMemoCache;

/** Perf and power of one (config, application) pair. */
struct EvalResult
{
    App app;
    PerfResult perf;
    PowerBreakdown power;

    double teraflops() const { return perf.flops / 1e12; }
    double perfPerWatt() const { return perf.flops / power.total(); }
};

class NodeEvaluator
{
  public:
    NodeEvaluator() = default;

    /** Evaluate one application on one configuration. */
    EvalResult evaluate(const NodeConfig &cfg, App app) const;

    /**
     * evaluate() through a memo cache: identical bits (hits return
     * previously computed results, misses compute through the same
     * models and remember them). Used by the DSE explorer and the
     * evaluation server, the two owners of an EvalMemoCache.
     */
    EvalResult evaluateMemo(const NodeConfig &cfg, App app,
                            EvalMemoCache &memo) const;

    /** Evaluate every Table I application on one configuration. */
    std::vector<EvalResult> evaluateAll(const NodeConfig &cfg) const;

    /**
     * Budget-scope power (package + provisioned external static power)
     * averaged over all applications.
     */
    double meanBudgetPower(const NodeConfig &cfg) const;

    /**
     * Worst-case budget-scope power across all applications — the
     * quantity held under the paper's 160 W node budget: a
     * configuration is only acceptable if no application can pull the
     * node over budget.
     */
    double maxBudgetPower(const NodeConfig &cfg) const;

    /** Geometric-mean achieved flops across all applications. */
    double geomeanFlops(const NodeConfig &cfg) const;

    const PerfModel &perfModel() const { return perfModel_; }
    const NodePowerModel &powerModel() const { return powerModel_; }

  private:
    PerfModel perfModel_;
    NodePowerModel powerModel_;
};

} // namespace ena

#endif // ENA_CORE_NODE_EVALUATOR_HH
