/**
 * @file
 * Config-file bindings for NodeConfig: load a node description from a
 * "key = value" Config so examples/tools can be driven by files rather
 * than code. bindFields() below is the list of recognized keys (all
 * optional; defaults = NodeConfig{}); unknown keys are rejected to
 * catch typos.
 *
 * "cluster." keys are ignored here: they describe the scale-out layer
 * and are parsed by clusterConfigFromConfig (src/cluster/), and
 * "taskgraph." keys describe the workload DAG and are parsed by
 * taskGraphSpecFromConfig (src/taskgraph/), so a single file can
 * describe the node, the machine around it and its workload.
 *
 * tryNodeConfigFromConfig is the recoverable entry point (errors carry
 * the offending key and its source:line origin); nodeConfigFromConfig
 * is the legacy fatal() wrapper.
 */

#ifndef ENA_COMMON_NODE_CONFIG_IO_HH
#define ENA_COMMON_NODE_CONFIG_IO_HH

#include "common/node_config.hh"
#include "util/config.hh"
#include "util/config_fields.hh"
#include "util/status.hh"

namespace ena {

/** The node's config keys, one (key, member) pair per field. */
template <class F>
void
bindFields(NodeConfig &n, F &&f)
{
    f("ehp.cus", n.cus);
    f("ehp.freq_ghz", n.freqGhz);
    f("ehp.bw_tbs", n.bwTbs);
    f("ehp.gpu_chiplets", n.gpuChiplets);
    f("ehp.cpu_chiplets", n.cpuChiplets);
    f("ehp.cores_per_cpu_chiplet", n.coresPerCpuChiplet);
    f("ehp.in_package_gb", n.inPackageGb);
    f("extmem.dram_gb", n.ext.dramGb);
    f("extmem.nvm_gb", n.ext.nvmGb);
    f("extmem.dram_module_gb", n.ext.dramModuleGb);
    f("extmem.nvm_module_gb", n.ext.nvmModuleGb);
    f("extmem.interfaces", n.ext.interfaces);
    f("extmem.interface_gbs", n.ext.interfaceGbs);
    f("opts.ntc", n.opts.ntc);
    f("opts.async_cu", n.opts.asyncCu);
    f("opts.async_router", n.opts.asyncRouter);
    f("opts.lp_links", n.opts.lpLinks);
    f("opts.compression", n.opts.compression);
}

inline Expected<NodeConfig>
tryNodeConfigFromConfig(const Config &cfg)
{
    return tryFieldsFromConfig<NodeConfig>(cfg, "node-config", "",
                                           {"cluster.", "taskgraph."});
}

/** Legacy flavor: fatal() with the chained diagnostic on any error. */
inline NodeConfig
nodeConfigFromConfig(const Config &cfg)
{
    return unwrapOrFatal(
        tryNodeConfigFromConfig(cfg).withContext("loading node config"));
}

/** Serialize a NodeConfig back into a Config. */
inline Config
nodeConfigToConfig(const NodeConfig &n)
{
    return fieldsToConfig(n);
}

} // namespace ena

#endif // ENA_COMMON_NODE_CONFIG_IO_HH
