#include "cluster/cluster_config.hh"

namespace ena {

const EnumNames<ClusterTopology> &
enumNames(ClusterTopology)
{
    static const EnumNames<ClusterTopology> names(
        "cluster topology",
        {{ClusterTopology::FatTree, "fat-tree",
          {"fattree", "fat_tree", "clos"}},
         {ClusterTopology::Dragonfly, "dragonfly"},
         {ClusterTopology::Torus3D, "3d-torus",
          {"torus", "torus3d", "3d_torus"}}});
    return names;
}

} // namespace ena
