#include "core/reconfig.hh"

#include "util/logging.hh"

namespace ena {

ReconfigGovernor::ReconfigGovernor(const NodeEvaluator &eval,
                                   GovernorParams params)
    : eval_(eval), params_(std::move(params))
{
    params_.installed.validate();
    ENA_ASSERT(!params_.freqsGhz.empty(), "governor needs DVFS points");
    ENA_ASSERT(params_.cuStep > 0, "bad CU-gating step");
}

EvalResult
ReconfigGovernor::evaluateSetting(App app, int cus, double f) const
{
    NodeConfig cfg = params_.installed;
    cfg.cus = cus;
    cfg.freqGhz = f;
    return eval_.evaluate(cfg, app);
}

GovernorDecision
ReconfigGovernor::decide(App app) const
{
    // Scan the (CU gating x DVFS) candidate grid in its enumeration
    // order (cus outer, freq inner, strict greater-than), so ties keep
    // the first setting found.
    GovernorDecision best;
    for (int cus = params_.cuStep; cus <= params_.installed.cus;
         cus += params_.cuStep) {
        for (double f : params_.freqsGhz) {
            EvalResult r = evaluateSetting(app, cus, f);
            const double budget = r.power.budgetPower();
            if (budget > params_.budgetW)
                continue;
            if (r.perf.flops > best.flops) {
                best.activeCus = cus;
                best.freqGhz = f;
                best.flops = r.perf.flops;
                best.budgetPowerW = budget;
            }
        }
    }
    if (best.activeCus == 0)
        ENA_FATAL("no feasible runtime setting for ", appName(app),
                  " under ", params_.budgetW, " W");
    return best;
}

GovernorSummary
ReconfigGovernor::run(const std::vector<Phase> &phases) const
{
    ENA_ASSERT(!phases.empty(), "empty workload");
    GovernorSummary s;
    double static_energy = 0.0;
    double governed_energy = 0.0;
    double total_time = 0.0;

    GovernorDecision prev;
    for (const Phase &ph : phases) {
        ENA_ASSERT(ph.seconds > 0.0, "phase needs positive duration");
        total_time += ph.seconds;

        // Static: installed hardware at its nominal settings.
        EvalResult st = eval_.evaluate(params_.installed, ph.app);
        s.staticWork += st.perf.flops * ph.seconds;
        static_energy += st.power.budgetPower() * ph.seconds;

        // Governed: per-phase setting plus the transition cost.
        GovernorDecision d = decide(ph.app);
        double useful = ph.seconds;
        bool switched = d.activeCus != prev.activeCus ||
                        d.freqGhz != prev.freqGhz;
        if (switched && &ph != &phases.front()) {
            useful -= params_.transitionS;
            ++s.transitions;
        }
        if (useful < 0.0)
            useful = 0.0;
        s.governedWork += d.flops * useful;
        governed_energy += d.budgetPowerW * ph.seconds;
        prev = d;
    }

    s.gainPct = (s.governedWork / s.staticWork - 1.0) * 100.0;
    s.avgStaticPowerW = static_energy / total_time;
    s.avgGovernedPowerW = governed_energy / total_time;
    return s;
}

} // namespace ena
