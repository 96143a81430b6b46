/**
 * @file
 * The node power model's arithmetic as inline term functions, called
 * by NodePowerModel::evaluate — the power-side twin of
 * core/perf_terms.hh. Each term's parameter list names the NodeConfig
 * fields it reads, which is also its content address in the memo
 * cache (core/eval_memo.hh).
 *
 * Do not reorder or reassociate the expressions here; the EXPERIMENTS
 * anchors and the bitwise serial/parallel/server gates depend on the
 * exact rounding sequence.
 */

#ifndef ENA_POWER_POWER_TERMS_HH
#define ENA_POWER_POWER_TERMS_HH

#include <algorithm>
#include <cmath>

#include "common/activity.hh"
#include "common/calibration.hh"
#include "common/node_config.hh"
#include "power/node_power.hh"
#include "power/vf_curve.hh"
#include "util/units.hh"

namespace ena {
namespace power_terms {

/** VF-curve voltage scaling factors. Reads: freqGhz, opts.ntc. */
struct VfScales
{
    double dyn = 1.0;
    double stat = 1.0;
};

inline VfScales
vfScales(const VfCurve &vf, double freq_ghz, bool ntc)
{
    return {vf.dynScale(freq_ghz, ntc), vf.staticScale(freq_ghz, ntc)};
}

/** In-package DRAM static power (W). Reads: bwTbs, gpuChiplets. */
inline double
hbmStaticW(double bw_tbs, int gpu_chiplets)
{
    return cal::hbmStackStaticW * gpu_chiplets +
           cal::hbmBwStaticCoef * std::pow(bw_tbs, cal::hbmBwStaticExp);
}

/** Provisioned external-memory static power (W). Reads: ext. */
struct ExtStatic
{
    double extMemW = 0.0;
    double serdesW = 0.0;
};

inline ExtStatic
extStaticW(const ExtMemConfig &ext)
{
    return {cal::extDramStaticWPerGb * ext.dramGb +
                cal::extNvmStaticWPerGb * ext.nvmGb,
            cal::serdesLinkStaticW * ext.totalModules()};
}

/** One full power evaluation of @p cfg at activity @p act. */
inline PowerBreakdown
evaluatePower(const NodeConfig &cfg, const VfCurve &vf_curve,
              const Activity &act)
{
    const int cus = cfg.cus;
    const double freq_ghz = cfg.freqGhz;
    const PowerOptConfig &opt = cfg.opts;
    const ExtMemConfig &ext = cfg.ext;
    const VfScales vf = vfScales(vf_curve, freq_ghz, opt.ntc);
    const ExtStatic ext_static = extStaticW(ext);
    PowerBreakdown p;

    // ---- GPU compute units ------------------------------------------
    p.cuDyn = cal::cuDynWPerGhz * cus * freq_ghz * vf.dyn *
              act.cuActivity();
    if (opt.asyncCu)
        p.cuDyn *= cal::asyncCuDynFactor;
    p.cuStatic = cal::cuLeakW * cus * vf.stat;

    // ---- Interposer network ------------------------------------------
    // Compression shrinks the LLC<->memory share of NoC traffic by the
    // application's compressibility.
    double noc_traffic = act.nocTrafficGbs;
    if (opt.compression && act.compressRatio > 1.0) {
        double c = cal::nocLlcMemShare;
        noc_traffic *= (1.0 - c) + c / act.compressRatio;
    }
    double noc_dyn = units::powerFromEventRate(noc_traffic * units::giga,
                                               cal::nocPjPerByte);
    double router_dyn = noc_dyn * cal::nocRouterShare;
    double link_dyn = noc_dyn * cal::linkShareOfNoc;
    double noc_static = cal::nocStaticW;
    if (opt.asyncRouter) {
        router_dyn *= cal::asyncRouterDynFactor;
        noc_static *= cal::asyncRouterStaticFactor;
    }
    if (opt.lpLinks)
        link_dyn *= cal::lpLinkDynFactor;
    p.nocDyn = router_dyn + link_dyn;
    p.nocStatic = noc_static;

    // ---- In-package 3D DRAM ------------------------------------------
    double hbm_traffic = act.inPkgTrafficGbs;
    if (opt.compression && act.compressRatio > 1.0) {
        // Compressed lines also cross the DRAM interface packed.
        double c = cal::nocLlcMemShare;
        hbm_traffic *= (1.0 - c) + c / act.compressRatio;
    }
    p.hbmDyn = units::powerFromEventRate(hbm_traffic * units::giga,
                                         cal::hbmPjPerByte);
    p.hbmStatic = hbmStaticW(cfg.bwTbs, cfg.gpuChiplets);

    // ---- CPU cluster + system ----------------------------------------
    p.cpu = cal::cpuStaticW + cal::cpuMaxDynW * act.cpuActivity;
    p.sys = cal::sysStaticW;

    // ---- External memory network --------------------------------------
    p.extMemStatic = ext_static.extMemW;
    p.serdesStatic = ext_static.serdesW;

    double ext_traffic =
        std::min(act.extTrafficGbs, ext.aggregateGbs()) * units::giga;
    // Traffic splits across DRAM and NVM in proportion to capacity
    // (address-interleaved placement).
    double nvm_frac =
        ext.totalGb() > 0.0 ? ext.nvmGb / ext.totalGb() : 0.0;
    double dram_traffic = ext_traffic * (1.0 - nvm_frac);
    double nvm_traffic = ext_traffic * nvm_frac;
    double nvm_pj = cal::nvmReadPjPerByte * (1.0 - act.writeFraction) +
                    cal::nvmWritePjPerByte * act.writeFraction;
    p.extMemDyn =
        units::powerFromEventRate(dram_traffic, cal::extDramPjPerByte) +
        units::powerFromEventRate(nvm_traffic, nvm_pj);
    p.serdesDyn =
        units::powerFromEventRate(ext_traffic, cal::serdesPjPerByte);

    return p;
}

} // namespace power_terms
} // namespace ena

#endif // ENA_POWER_POWER_TERMS_HH
