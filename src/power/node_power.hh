/**
 * @file
 * Node-level power model: per-component breakdown for one ENA node
 * running one application, mirroring the categories of the paper's
 * Fig. 9 (SerDes static/dynamic, external memory static/dynamic, CU
 * dynamic, Other).
 */

#ifndef ENA_POWER_NODE_POWER_HH
#define ENA_POWER_NODE_POWER_HH

#include <string>

#include "common/activity.hh"
#include "common/node_config.hh"
#include "power/vf_curve.hh"

namespace ena {

/** Watts per node component; see NodePowerModel::evaluate(). */
struct PowerBreakdown
{
    double cuDyn = 0.0;
    double cuStatic = 0.0;
    double nocDyn = 0.0;
    double nocStatic = 0.0;
    double hbmDyn = 0.0;
    double hbmStatic = 0.0;
    double cpu = 0.0;
    double sys = 0.0;
    double extMemDyn = 0.0;
    double extMemStatic = 0.0;
    double serdesDyn = 0.0;
    double serdesStatic = 0.0;

    /** EHP package + in-package memory power (the DSE budget scope also
     *  adds external static power; see budgetPower()). */
    double
    packagePower() const
    {
        return cuDyn + cuStatic + nocDyn + nocStatic + hbmDyn + hbmStatic +
               cpu + sys;
    }

    /** External-memory subsystem power (Fig. 9's four external bars). */
    double
    externalPower() const
    {
        return extMemDyn + extMemStatic + serdesDyn + serdesStatic;
    }

    /**
     * Power against the 160 W node budget: the package plus the
     * provisioned (static) external-memory power. Application-dependent
     * external dynamic power is excluded, matching the paper's use of a
     * single per-node budget alongside Fig. 9 totals that exceed it.
     */
    double
    budgetPower() const
    {
        return packagePower() + extMemStatic + serdesStatic;
    }

    /** Total ENA power (Fig. 9 y-axis). */
    double total() const { return packagePower() + externalPower(); }

    /** Fig. 9's "Other" grouping: everything but CU dynamic and the
     *  external components. */
    double
    other() const
    {
        return total() - cuDyn - externalPower();
    }

    /** Component-wise sum (for averaging across applications). */
    PowerBreakdown &operator+=(const PowerBreakdown &o);
    PowerBreakdown &operator*=(double k);
};

/**
 * Evaluates the per-component power of a node configuration under a
 * given application activity vector. Stateless apart from the VF curve.
 */
class NodePowerModel
{
  public:
    NodePowerModel() = default;

    /**
     * Compute the power breakdown.
     * @param cfg node hardware configuration (cfg.opts selects the
     *            Section V-E optimizations)
     * @param act application activity from the performance model
     */
    PowerBreakdown evaluate(const NodeConfig &cfg,
                            const Activity &act) const;

  private:
    VfCurve vf_;
};

} // namespace ena

#endif // ENA_POWER_NODE_POWER_HH
