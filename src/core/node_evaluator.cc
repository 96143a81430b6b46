#include "core/node_evaluator.hh"

#include <algorithm>

#include "core/eval_memo.hh"
#include "telemetry/metrics.hh"
#include "util/stats_math.hh"

namespace ena {

namespace {

telemetry::Counter &
evalsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "node.evaluations",
        "(config, application) pairs evaluated by NodeEvaluator");
    return c;
}

} // anonymous namespace

EvalResult
NodeEvaluator::evaluate(const NodeConfig &cfg, App app) const
{
    // Hottest call in the stack (every sweep funnels through here):
    // one cached-reference relaxed increment, no spans.
    evalsCounter().add();

    const KernelProfile &k = profileFor(app);
    EvalResult r;
    r.app = app;
    r.perf = perfModel_.evaluate(cfg, k);
    r.power = powerModel_.evaluate(cfg, r.perf.activity);
    return r;
}

EvalResult
NodeEvaluator::evaluateMemo(const NodeConfig &cfg, App app,
                            EvalMemoCache &memo) const
{
    evalsCounter().add();

    EvalResult r;
    r.app = app;
    PerfMemoKey pk = perfMemoKey(app, cfg.cus, cfg.freqGhz, cfg.bwTbs);
    if (!memo.findPerf(pk, &r.perf)) {
        r.perf = perfModel_.evaluate(cfg, profileFor(app));
        memo.storePerf(pk, r.perf);
    }
    PowerMemoKey wk = powerMemoKey(app, cfg);
    if (!memo.findPower(wk, &r.power)) {
        r.power = powerModel_.evaluate(cfg, r.perf.activity);
        memo.storePower(wk, r.power);
    }
    return r;
}

std::vector<EvalResult>
NodeEvaluator::evaluateAll(const NodeConfig &cfg) const
{
    std::vector<EvalResult> out;
    out.reserve(allApps().size());
    for (App app : allApps())
        out.push_back(evaluate(cfg, app));
    return out;
}

double
NodeEvaluator::meanBudgetPower(const NodeConfig &cfg) const
{
    std::vector<double> powers;
    for (App app : allApps())
        powers.push_back(evaluate(cfg, app).power.budgetPower());
    return mean(powers);
}

double
NodeEvaluator::maxBudgetPower(const NodeConfig &cfg) const
{
    double worst = 0.0;
    for (App app : allApps()) {
        worst = std::max(worst,
                         evaluate(cfg, app).power.budgetPower());
    }
    return worst;
}

double
NodeEvaluator::geomeanFlops(const NodeConfig &cfg) const
{
    std::vector<double> perfs;
    for (App app : allApps())
        perfs.push_back(evaluate(cfg, app).perf.flops);
    return geomean(perfs);
}

} // namespace ena
