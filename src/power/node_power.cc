#include "power/node_power.hh"

#include <algorithm>
#include <cmath>

#include "common/calibration.hh"
#include "power/power_terms.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace ena {

PowerBreakdown &
PowerBreakdown::operator+=(const PowerBreakdown &o)
{
    cuDyn += o.cuDyn;
    cuStatic += o.cuStatic;
    nocDyn += o.nocDyn;
    nocStatic += o.nocStatic;
    hbmDyn += o.hbmDyn;
    hbmStatic += o.hbmStatic;
    cpu += o.cpu;
    sys += o.sys;
    extMemDyn += o.extMemDyn;
    extMemStatic += o.extMemStatic;
    serdesDyn += o.serdesDyn;
    serdesStatic += o.serdesStatic;
    return *this;
}

PowerBreakdown &
PowerBreakdown::operator*=(double k)
{
    cuDyn *= k;
    cuStatic *= k;
    nocDyn *= k;
    nocStatic *= k;
    hbmDyn *= k;
    hbmStatic *= k;
    cpu *= k;
    sys *= k;
    extMemDyn *= k;
    extMemStatic *= k;
    serdesDyn *= k;
    serdesStatic *= k;
    return *this;
}

PowerBreakdown
NodePowerModel::evaluate(const NodeConfig &cfg, const Activity &act) const
{
    cfg.validate();

    return power_terms::evaluatePower(cfg, vf_, act);
}

} // namespace ena
