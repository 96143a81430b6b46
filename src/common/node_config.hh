/**
 * @file
 * Hardware configuration of one Exascale Node Architecture (ENA) node.
 *
 * The design space explored by the paper varies three knobs — total GPU
 * CU count, GPU frequency, and in-package memory bandwidth — on top of a
 * fixed EHP organization (8 GPU chiplets, 8 CPU chiplets, one 3D DRAM
 * stack per GPU chiplet) and a configurable external-memory network.
 */

#ifndef ENA_COMMON_NODE_CONFIG_HH
#define ENA_COMMON_NODE_CONFIG_HH

#include <climits>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/status.hh"
#include "util/string_utils.hh"

namespace ena {

/** Which power-saving techniques are enabled (paper Section V-E). */
struct PowerOptConfig
{
    bool ntc = false;          ///< near-threshold computing on the CUs
    bool asyncCu = false;      ///< asynchronous ALUs/crossbars in CUs
    bool asyncRouter = false;  ///< asynchronous interconnect routers
    bool lpLinks = false;      ///< low-power on-chip link mode
    bool compression = false;  ///< LLC<->memory DRAM-traffic compression

    /** All techniques enabled (the paper's "All" bar). */
    static PowerOptConfig
    all()
    {
        return {true, true, true, true, true};
    }

    /** No techniques enabled (baseline; DVFS is always included). */
    static PowerOptConfig none() { return {}; }

    bool
    any() const
    {
        return ntc || asyncCu || asyncRouter || lpLinks || compression;
    }
};

/** External-memory network configuration (Section II-B2). */
struct ExtMemConfig
{
    double dramGb = 768.0;         ///< external DRAM capacity
    double nvmGb = 0.0;            ///< external NVM capacity
    double dramModuleGb = 64.0;    ///< capacity per DRAM module
    double nvmModuleGb = 256.0;    ///< capacity per NVM module (4x DRAM)
    int interfaces = 8;            ///< EHP external-memory interfaces
    double interfaceGbs = 100.0;   ///< peak bandwidth per interface

    /** DRAM-only baseline: 768 GB external DRAM (1 TB node total). */
    static ExtMemConfig dramOnly() { return {}; }

    /**
     * Hybrid configuration from Section V-C: half the external DRAM
     * replaced by NVM at the same total capacity.
     */
    static ExtMemConfig
    hybrid()
    {
        ExtMemConfig c;
        c.dramGb = 384.0;
        c.nvmGb = 384.0;
        return c;
    }

    double totalGb() const { return dramGb + nvmGb; }
    double aggregateGbs() const { return interfaces * interfaceGbs; }

    int
    dramModules() const
    {
        return static_cast<int>((dramGb + dramModuleGb - 1) / dramModuleGb);
    }

    int
    nvmModules() const
    {
        return nvmGb <= 0.0
                   ? 0
                   : static_cast<int>((nvmGb + nvmModuleGb - 1) /
                                      nvmModuleGb);
    }

    /** Point-to-point SerDes link count (one per chained module). */
    int totalModules() const { return dramModules() + nvmModules(); }
};

/** One ENA node's hardware configuration. */
struct NodeConfig
{
    // --- the three DSE knobs ---
    int cus = 320;              ///< total GPU compute units
    double freqGhz = 1.0;       ///< GPU frequency
    double bwTbs = 3.0;         ///< aggregate in-package DRAM bandwidth

    // --- fixed EHP organization ---
    int gpuChiplets = 8;
    int cpuChiplets = 8;
    int coresPerCpuChiplet = 4;
    double inPackageGb = 256.0; ///< 8 stacks x 32 GB

    ExtMemConfig ext;
    PowerOptConfig opts;

    /** CUs per GPU chiplet (need not be the nominal 32 during sweeps). */
    double
    cusPerChiplet() const
    {
        return static_cast<double>(cus) / gpuChiplets;
    }

    int cpuCores() const { return cpuChiplets * coresPerCpuChiplet; }

    /** The paper's ops-per-byte x-axis: CU-GHz per GB/s. */
    double
    opsPerByte() const
    {
        return cus * freqGhz / (bwTbs * 1000.0);
    }

    /** Sanity-check ranges; the error names the offending knob. */
    Status
    tryValidate() const
    {
        if (cus <= 0 || cus > 4096)
            return Status::outOfRange("NodeConfig: bad CU count ", cus);
        if (freqGhz <= 0.0 || freqGhz > 10.0) {
            return Status::outOfRange("NodeConfig: bad GPU frequency ",
                                      freqGhz, " GHz");
        }
        if (bwTbs <= 0.0 || bwTbs > 100.0) {
            return Status::outOfRange("NodeConfig: bad bandwidth ",
                                      bwTbs, " TB/s");
        }
        if (gpuChiplets <= 0 || cpuChiplets < 0)
            return Status::outOfRange("NodeConfig: bad chiplet counts");
        return Status();
    }

    /** Legacy flavor: fatal() on nonsense. */
    void validate() const { checkOrFatal(tryValidate()); }

    /** Short "320cu@1.00GHz/3.0TBps" label for tables. */
    std::string
    label() const
    {
        return strformat("%dcu@%.2fGHz/%.1fTBps", cus, freqGhz, bwTbs);
    }

    /** Paper Section V baseline: best-mean config 320 / 1 GHz / 3 TB/s. */
    static NodeConfig bestMean() { return {}; }
};

/** The points of a one-knob parameter sweep (sweep_tool, server). */
struct AxisSweep
{
    std::vector<double> values;      ///< trySweepAxisValues(from, to, step)
    std::vector<NodeConfig> configs; ///< base with the knob set to each
};

/**
 * Sweep @p base along @p axis ("cus" | "freq" | "bw") over
 * trySweepAxisValues(@p from, @p to, @p step). invalid_argument for
 * any other axis or a fractional "cus" value; out_of_range for a bad
 * range, a "cus" value outside [1, INT_MAX] (both checked before the
 * conversion to int), or a point that fails NodeConfig::tryValidate.
 */
inline Expected<AxisSweep>
trySweepAxis(const NodeConfig &base, std::string_view axis, double from,
             double to, double step)
{
    if (axis != "cus" && axis != "freq" && axis != "bw") {
        return Status::invalidArgument("unknown sweep axis '", axis,
                                       "' (want cus, freq, or bw)");
    }
    AxisSweep sweep;
    ENA_ASSIGN_OR_RETURN(sweep.values, trySweepAxisValues(from, to, step));
    sweep.configs.reserve(sweep.values.size());
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
        const double v = sweep.values[i];
        NodeConfig cfg = base;
        if (axis == "cus") {
            if (!(v >= 1.0 && v <= INT_MAX)) {
                return Status::outOfRange("sweep point ", i, ": cus value ",
                                          v, " is outside [1, ", INT_MAX,
                                          "]");
            }
            if (v != std::floor(v)) {
                return Status::invalidArgument(
                    "sweep point ", i, ": cus value ", v,
                    " is not a whole number of CUs");
            }
            cfg.cus = static_cast<int>(v);
        } else if (axis == "freq") {
            cfg.freqGhz = v;
        } else {
            cfg.bwTbs = v;
        }
        ENA_TRY(cfg.tryValidate().withContext("sweep point ", i,
                                              " (value ", v, ")"));
        sweep.configs.push_back(cfg);
    }
    return sweep;
}

} // namespace ena

#endif // ENA_COMMON_NODE_CONFIG_HH
