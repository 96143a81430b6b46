#include "ras/rmt.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stats_math.hh"

namespace ena {

const EnumNames<RmtPolicy> &
enumNames(RmtPolicy)
{
    static const EnumNames<RmtPolicy> names(
        "RMT policy", {{RmtPolicy::Off, "off", {"none", "disabled"}},
                       {RmtPolicy::Opportunistic, "opportunistic"},
                       {RmtPolicy::Full, "full"}});
    return names;
}

RmtModel::RmtModel(double compare_overhead)
    : compareOverhead_(compare_overhead)
{
    ENA_ASSERT(compare_overhead >= 0.0 && compare_overhead < 1.0,
               "bad RMT comparison overhead");
}

RmtOutcome
RmtModel::evaluate(const Activity &act, RmtPolicy policy) const
{
    RmtOutcome out;
    if (policy == RmtPolicy::Off)
        return out;

    double util = clamp(act.cuUtilization, 0.0, 1.0);
    double idle = 1.0 - util;

    if (policy == RmtPolicy::Opportunistic) {
        // Duplicate as much of the busy fraction as fits in the idle
        // resources; no compute is stolen, so the only slowdown is the
        // comparison overhead on the covered fraction.
        out.coverage = util > 0.0 ? std::min(1.0, idle / util) : 1.0;
        out.slowdown =
            1.0 + compareOverhead_ * out.coverage * util;
        out.extraCuActivity = util * out.coverage;
        return out;
    }

    // Full duplication: everything runs twice.
    out.coverage = 1.0;
    double demand = 2.0 * util;
    // When the doubled demand exceeds the machine, execution dilates.
    double dilation = std::max(1.0, demand);
    out.slowdown = dilation * (1.0 + compareOverhead_);
    out.extraCuActivity = std::min(util, idle) +
                          std::max(0.0, util - idle);
    return out;
}

} // namespace ena
