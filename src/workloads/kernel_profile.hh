/**
 * @file
 * Application kernel profiles (paper Table I).
 *
 * The paper's methodology measures each proxy application on real
 * hardware and fits analytic/ML scaling models [38],[42],[43]; we replace
 * the measurements with per-kernel profiles whose parameters encode the
 * same observed behaviours: arithmetic intensity, achievable compute
 * efficiency, CU-count and frequency scaling exponents (the "taxonomy of
 * GPGPU performance scaling"), memory-contention onset, latency
 * sensitivity, off-package traffic fraction, and data compressibility.
 */

#ifndef ENA_WORKLOADS_KERNEL_PROFILE_HH
#define ENA_WORKLOADS_KERNEL_PROFILE_HH

#include <string>
#include <vector>

#include "util/enum_names.hh"
#include "util/status.hh"

namespace ena {

/** The proxy applications studied by the paper (Table I). */
enum class App
{
    MaxFlops,
    CoMD,
    CoMDLJ,
    HPGMG,
    LULESH,
    MiniAMR,
    XSBench,
    SNAP,
};

/** Paper Section IV kernel categories. */
enum class AppCategory
{
    ComputeIntensive,
    Balanced,
    MemoryIntensive,
};

/** Display names ("CoMD-LJ"), in the paper's Table I order. */
const EnumNames<App> &enumNames(App);

/** All eight applications, in the paper's Table I order. */
inline const std::vector<App> &
allApps()
{
    return enumNames(App{}).all();
}

/** Short display name ("CoMD-LJ"). */
inline std::string
appName(App app)
{
    return std::string(enumNames(app).name(app));
}

/** Parse an application name (case-insensitive). */
inline Expected<App>
tryAppFromName(const std::string &name)
{
    return enumNames(App{}).tryParse(name);
}

/** Parse an application name (case-insensitive); fatal() on unknown. */
inline App
appFromName(const std::string &name)
{
    return unwrapOrFatal(tryAppFromName(name));
}

std::string categoryName(AppCategory c);

/**
 * Analytic model parameters for one application's dominant kernel.
 *
 * Perf-model semantics (see core::PerfModel):
 *   compute rate C = peakFlops(n_cu, f) * computeEfficiency
 *                    * (n_cu/320)^(cuScalingExp-1) * (f/1.0)^(freqScalingExp-1)
 *   memory rate  M = bw_eff * arithmeticIntensity
 *   bw_eff = bw / (1 + contentionAlpha * max(0, opb - contentionKnee)^2)
 */
struct KernelProfile
{
    App app;
    AppCategory category;
    std::string description;      ///< Table I description.

    // --- performance scaling ---
    double arithmeticIntensity;   ///< flops per byte of DRAM traffic.
    double computeEfficiency;     ///< fraction of peak flops achievable.
    double cuScalingExp;          ///< perf ~ n_cu^sigma (compute term).
    double freqScalingExp;        ///< perf ~ f^phi (compute term).
    double contentionKnee;        ///< opb where thrashing begins.
    double contentionAlpha;       ///< thrashing severity (0 = none).
    double latencySensitivity;    ///< 0..1, unhidden-stall fraction.
    double memLevelParallelism;   ///< avg outstanding misses per CU.
    double maxBandwidthTbs;       ///< sustained-traffic saturation: the
                                  ///< kernel's access irregularity and
                                  ///< divergence limit how much DRAM
                                  ///< bandwidth it can consume (paper
                                  ///< Figs. 4-6: bandwidth curves
                                  ///< cluster once provisioning exceeds
                                  ///< this).

    // --- memory behaviour ---
    double extTrafficFraction;    ///< fraction of traffic going off-package
                                  ///< under default two-level management
                                  ///< (paper: 46%..89%).
    double footprintGb;           ///< problem working set.
    double writeFraction;         ///< stores / (loads + stores).
    double compressRatio;         ///< DRAM-link compressibility (>= 1).

    // --- power behaviour ---
    double cuIdleActivity;        ///< dynamic activity when stalled.

    // --- synthetic trace shape (cycle-level simulator) ---
    double spatialLocality;       ///< P(next access is sequential).
    double computePerMemByte;     ///< compute cycles per traffic byte.
    double sharedFraction;        ///< fraction of accesses to data shared
                                  ///< across chiplets (coherence traffic).
};

/** Profile for one application; parameters calibrated to the paper. */
const KernelProfile &profileFor(App app);

/** All profiles in Table I order. */
std::vector<KernelProfile> allProfiles();

} // namespace ena

#endif // ENA_WORKLOADS_KERNEL_PROFILE_HH
