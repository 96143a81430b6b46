/**
 * @file
 * Config-file bindings for ClusterConfig, mirroring node_config_io.hh:
 * the cluster is described under the "cluster." prefix so one file can
 * hold a full machine description (ehp.* / extmem.* / opts.* for the
 * node next to cluster.* for the scale-out layer) and be loaded by both
 * nodeConfigFromConfig and clusterConfigFromConfig. bindFields() below
 * is the list of recognized keys (all optional; defaults =
 * ClusterConfig{}).
 *
 * Unknown "cluster." keys are rejected to catch typos; keys outside the
 * prefix are ignored (they belong to the node layers), as are
 * "cluster.ras." keys (the resiliency layer's; see
 * resilient_cluster_io.hh).
 *
 * tryClusterConfigFromConfig is the recoverable entry point (errors
 * carry the offending key and its source:line origin);
 * clusterConfigFromConfig is the legacy fatal() wrapper.
 */

#ifndef ENA_CLUSTER_CLUSTER_CONFIG_IO_HH
#define ENA_CLUSTER_CLUSTER_CONFIG_IO_HH

#include "cluster/cluster_config.hh"
#include "util/config.hh"
#include "util/config_fields.hh"
#include "util/status.hh"

namespace ena {

/** The cluster's config keys, one (key, member) pair per field. */
template <class F>
void
bindFields(ClusterConfig &c, F &&f)
{
    f("cluster.nodes", c.nodes);
    f("cluster.topology", c.topology);
    f("cluster.links_per_node", c.linksPerNode);
    f("cluster.link_gbs", c.linkGbs);
    f("cluster.link_latency_us", c.linkLatencyUs);
    f("cluster.pj_per_bit", c.pjPerBit);
    f("cluster.fat_tree_radix", c.fatTreeRadix);
    f("cluster.fat_tree_taper", c.fatTreeTaper);
    f("cluster.dragonfly_group_routers", c.dragonflyGroupRouters);
    f("cluster.torus_x", c.torusX);
    f("cluster.torus_y", c.torusY);
    f("cluster.torus_z", c.torusZ);
}

inline Expected<ClusterConfig>
tryClusterConfigFromConfig(const Config &cfg)
{
    return tryFieldsFromConfig<ClusterConfig>(cfg, "cluster-config",
                                              "cluster.", {"cluster.ras."});
}

/** Legacy flavor: fatal() with the chained diagnostic on any error. */
inline ClusterConfig
clusterConfigFromConfig(const Config &cfg)
{
    return unwrapOrFatal(tryClusterConfigFromConfig(cfg).withContext(
        "loading cluster config"));
}

/** Serialize a ClusterConfig back into a Config ("cluster." keys). */
inline Config
clusterConfigToConfig(const ClusterConfig &c)
{
    return fieldsToConfig(c);
}

} // namespace ena

#endif // ENA_CLUSTER_CLUSTER_CONFIG_IO_HH
