/**
 * @file
 * Config-file bindings for ResilienceSpec, mirroring
 * cluster_config_io.hh: the resiliency layer is described under the
 * "cluster.ras." prefix, so one "key = value" file can hold the full
 * fault-aware machine (ehp.* / extmem.* / opts.* for the node,
 * cluster.* for the fabric, cluster.ras.* for protection and
 * checkpointing) and be loaded by nodeConfigFromConfig,
 * clusterConfigFromConfig, and resilienceSpecFromConfig side by side.
 * bindFields() below is the list of recognized keys (all optional;
 * defaults = ResilienceSpec{}).
 *
 * Unknown "cluster.ras." keys are rejected to catch typos; keys
 * outside the prefix are ignored (they belong to the other layers).
 *
 * tryResilienceSpecFromConfig is the recoverable entry point (errors
 * carry the offending key and its source:line origin);
 * resilienceSpecFromConfig is the legacy fatal() wrapper.
 */

#ifndef ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH
#define ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH

#include "cluster/resilient_cluster.hh"
#include "util/config.hh"
#include "util/config_fields.hh"
#include "util/status.hh"

namespace ena {

/** The resiliency layer's config keys, one (key, member) pair each. */
template <class F>
void
bindFields(ResilienceSpec &s, F &&f)
{
    f("cluster.ras.faults_enabled", s.faultsEnabled);
    f("cluster.ras.dram_ecc", s.ras.dramEcc);
    f("cluster.ras.sram_ecc", s.ras.sramEcc);
    f("cluster.ras.gpu_rmt", s.ras.gpuRmt);
    f("cluster.ras.ntc_ser_multiplier", s.ras.ntcSerMultiplier);
    f("cluster.ras.rmt_policy", s.rmtPolicy);
    f("cluster.ras.checkpoint_bytes", s.checkpoint.checkpointBytes);
    f("cluster.ras.io_bandwidth_bps", s.checkpoint.ioBandwidthBps);
    f("cluster.ras.checkpoint_overhead_s", s.checkpoint.overheadS);
    f("cluster.ras.restart_extra_s", s.checkpoint.restartExtraS);
    f("cluster.ras.checkpoint_via_fabric", s.checkpointViaFabric);
}

inline Expected<ResilienceSpec>
tryResilienceSpecFromConfig(const Config &cfg)
{
    return tryFieldsFromConfig<ResilienceSpec>(cfg, "resilience-config",
                                               "cluster.ras.");
}

/** Legacy flavor: fatal() with the chained diagnostic on any error. */
inline ResilienceSpec
resilienceSpecFromConfig(const Config &cfg)
{
    return unwrapOrFatal(tryResilienceSpecFromConfig(cfg).withContext(
        "loading resilience spec"));
}

/** Serialize a ResilienceSpec back into a Config ("cluster.ras."). */
inline Config
resilienceSpecToConfig(const ResilienceSpec &s)
{
    return fieldsToConfig(s);
}

} // namespace ena

#endif // ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH
