/**
 * @file
 * ClusterConfig: defaults, validation, naming, and the "cluster."
 * config-file bindings (including combined node + cluster files).
 */

#include <gtest/gtest.h>

#include "cluster/cluster_config_io.hh"
#include "common/node_config_io.hh"

using namespace ena;

TEST(ClusterConfig, ExascaleDefaults)
{
    ClusterConfig c = ClusterConfig::exascale();
    EXPECT_EQ(c.nodes, 100000);
    EXPECT_EQ(c.topology, ClusterTopology::FatTree);
    EXPECT_EQ(c.linksPerNode, 4);
    EXPECT_DOUBLE_EQ(c.linkGbs, 25.0);
    EXPECT_DOUBLE_EQ(c.injectionGbs(), 100.0);
    EXPECT_DOUBLE_EQ(c.fatTreeTaper, 1.0);
    c.validate();   // must not be fatal
}

TEST(ClusterConfig, LabelNamesTheMachine)
{
    ClusterConfig c;
    EXPECT_EQ(c.label(), "fat-tree x100000 @4x25GBps");
    c.topology = ClusterTopology::Torus3D;
    c.nodes = 1000;
    c.linksPerNode = 6;
    EXPECT_EQ(c.label(), "3d-torus x1000 @6x25GBps");
}

TEST(ClusterConfig, TopologyNamesRoundTrip)
{
    for (ClusterTopology t : allClusterTopologies())
        EXPECT_EQ(*tryClusterTopologyFromName(clusterTopologyName(t)), t);
    // Case-insensitive, with a few aliases.
    EXPECT_EQ(*tryClusterTopologyFromName("Fat-Tree"),
              ClusterTopology::FatTree);
    EXPECT_EQ(*tryClusterTopologyFromName("fattree"),
              ClusterTopology::FatTree);
    EXPECT_EQ(*tryClusterTopologyFromName("DRAGONFLY"),
              ClusterTopology::Dragonfly);
    EXPECT_EQ(*tryClusterTopologyFromName("torus"),
              ClusterTopology::Torus3D);
}

TEST(ClusterConfigDeathTest, UnknownTopologyIsFatal)
{
    EXPECT_EXIT(unwrapOrFatal(tryClusterTopologyFromName("hypercube")),
                testing::ExitedWithCode(1), "unknown cluster topology");
}

TEST(ClusterConfigDeathTest, ValidateCatchesNonsense)
{
    ClusterConfig c;
    c.nodes = 0;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "bad node count");
    c = ClusterConfig{};
    c.fatTreeTaper = 0.5;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "taper must be >= 1");
}

TEST(ClusterConfig, TorusDimsMustBeAllExplicitOrAllAutoAndFitTheNodes)
{
    ClusterConfig c;
    c.topology = ClusterTopology::Torus3D;
    c.nodes = 1000;
    EXPECT_TRUE(c.tryValidate().ok());   // all auto
    c.torusX = 7;
    EXPECT_EQ(c.tryValidate().code(), ErrorCode::InvalidArgument);
    c.torusY = c.torusZ = 7;
    EXPECT_EQ(c.tryValidate().code(), ErrorCode::InvalidArgument);
    c.torusX = c.torusY = c.torusZ = 10;
    EXPECT_TRUE(c.tryValidate().ok());
    // Other topologies ignore the torus knobs.
    c.topology = ClusterTopology::FatTree;
    c.torusX = 7;
    EXPECT_TRUE(c.tryValidate().ok());
}

TEST(ClusterConfig, WithNodesKeepsTheFabricAndDerivesTorusDims)
{
    ClusterConfig c;
    c.topology = ClusterTopology::Torus3D;
    c.nodes = 1000;
    c.torusX = c.torusY = c.torusZ = 10;
    c.linkGbs = 50.0;
    ClusterConfig d = c.withNodes(8000);
    EXPECT_EQ(d.nodes, 8000);
    EXPECT_EQ(d.torusX, 0);
    EXPECT_EQ(d.torusY, 0);
    EXPECT_EQ(d.torusZ, 0);
    EXPECT_EQ(d.topology, c.topology);
    EXPECT_EQ(d.linkGbs, c.linkGbs);
    EXPECT_TRUE(d.tryValidate().ok());
    EXPECT_EQ(c.nodes, 1000);           // the original is untouched
}

TEST(ClusterConfigIo, RoundTripsThroughConfig)
{
    ClusterConfig c;
    c.nodes = 4096;
    c.topology = ClusterTopology::Dragonfly;
    c.linksPerNode = 8;
    c.linkGbs = 50.0;
    c.linkLatencyUs = 0.25;
    c.pjPerBit = 5.0;
    c.dragonflyGroupRouters = 16;

    ClusterConfig back = clusterConfigFromConfig(clusterConfigToConfig(c));
    EXPECT_EQ(back.nodes, c.nodes);
    EXPECT_EQ(back.topology, c.topology);
    EXPECT_EQ(back.linksPerNode, c.linksPerNode);
    EXPECT_DOUBLE_EQ(back.linkGbs, c.linkGbs);
    EXPECT_DOUBLE_EQ(back.linkLatencyUs, c.linkLatencyUs);
    EXPECT_DOUBLE_EQ(back.pjPerBit, c.pjPerBit);
    EXPECT_EQ(back.dragonflyGroupRouters, c.dragonflyGroupRouters);
}

TEST(ClusterConfigIo, OneFileDescribesNodeAndCluster)
{
    // A combined machine description: node keys and cluster keys in
    // the same file, each loader picking up its own prefix.
    Config cfg = Config::fromString(R"(
        ehp.cus = 256
        ehp.freq_ghz = 1.2
        cluster.nodes = 2000
        cluster.topology = 3d-torus
        cluster.torus_x = 20
        cluster.torus_y = 10
        cluster.torus_z = 10
    )");

    NodeConfig node = nodeConfigFromConfig(cfg);
    EXPECT_EQ(node.cus, 256);
    EXPECT_DOUBLE_EQ(node.freqGhz, 1.2);

    ClusterConfig cluster = clusterConfigFromConfig(cfg);
    EXPECT_EQ(cluster.nodes, 2000);
    EXPECT_EQ(cluster.topology, ClusterTopology::Torus3D);
    EXPECT_EQ(cluster.torusX, 20);
    EXPECT_EQ(cluster.torusY, 10);
    EXPECT_EQ(cluster.torusZ, 10);
}

TEST(ClusterConfigIo, DefaultsWhenNoClusterKeys)
{
    Config cfg = Config::fromString("ehp.cus = 128\n");
    ClusterConfig c = clusterConfigFromConfig(cfg);
    EXPECT_EQ(c.nodes, ClusterConfig{}.nodes);
    EXPECT_EQ(c.topology, ClusterConfig{}.topology);
}

TEST(ClusterConfigIoDeathTest, TyposInClusterKeysAreFatal)
{
    Config cfg = Config::fromString("cluster.nodez = 10\n");
    EXPECT_EXIT(clusterConfigFromConfig(cfg),
                testing::ExitedWithCode(1), "unknown cluster-config key");
}
