/**
 * @file
 * Tests for the field codec (util/config_fields.hh) and the enum name
 * tables (util/enum_names.hh), walked through the four bound config
 * structs: NodeConfig, ClusterConfig, ResilienceSpec, TaskGraphSpec.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_config_io.hh"
#include "cluster/comm_pattern.hh"
#include "cluster/resilient_cluster_io.hh"
#include "common/node_config_io.hh"
#include "taskgraph/task_dag_io.hh"
#include "util/rng.hh"

using namespace ena;

namespace {

template <class S>
std::vector<std::string>
boundKeys()
{
    S s;
    std::vector<std::string> keys;
    bindFields(s, [&](const char *key, const auto &) {
        keys.push_back(key);
    });
    return keys;
}

/** Every bound member's bits, in binding order. */
template <class S>
std::vector<std::uint64_t>
fieldBits(S s)
{
    std::vector<std::uint64_t> bits;
    bindFields(s, [&](const char *, const auto &v) {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof v);
        bits.push_back(b);
    });
    return bits;
}

/**
 * Perturb every bound field of a default S: doubles get a random
 * full-precision factor in [1, 1.1) (or a random value when zero), ints
 * a small offset, bools, enums and seeds random values. The ranges stay
 * inside every struct's tryValidate().
 */
template <class S>
S
randomized(Rng &rng)
{
    S s;
    bindFields(s, [&](const char *, auto &v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>)
            v = v == 0.0 ? rng.uniform() : v * (1.0 + 0.1 * rng.uniform());
        else if constexpr (std::is_same_v<T, int>)
            v += v > 0 ? static_cast<int>(rng.below(3)) : 0;
        else if constexpr (std::is_same_v<T, bool>)
            v = rng.chance(0.5);
        else if constexpr (std::is_same_v<T, std::uint64_t>)
            v = rng.next();
        else {
            const auto &all = enumNames(v).all();
            v = all[rng.below(all.size())];
        }
    });
    return s;
}

/** Write @p s, print it, parse the text, and read it back. */
template <class S, class Write, class Read>
void
expectBitwiseRoundTrip(const S &s, Write write, Read read)
{
    const std::string text = write(s).toString();
    Expected<Config> parsed = Config::tryFromString(text, "rt");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    Expected<S> back = read(*parsed);
    ASSERT_TRUE(back.ok()) << back.status().toString() << "\n" << text;
    EXPECT_EQ(fieldBits(*back), fieldBits(s)) << text;
}

} // anonymous namespace

TEST(ConfigFields, EveryStructRoundTripsBitwiseThroughText)
{
    Rng rng(15);
    for (int i = 0; i < 200; ++i) {
        expectBitwiseRoundTrip(randomized<NodeConfig>(rng),
                               nodeConfigToConfig, tryNodeConfigFromConfig);
        expectBitwiseRoundTrip(randomized<ClusterConfig>(rng),
                               clusterConfigToConfig,
                               tryClusterConfigFromConfig);
        expectBitwiseRoundTrip(randomized<ResilienceSpec>(rng),
                               resilienceSpecToConfig,
                               tryResilienceSpecFromConfig);
        expectBitwiseRoundTrip(randomized<TaskGraphSpec>(rng),
                               taskGraphSpecToConfig,
                               tryTaskGraphSpecFromConfig);
    }
}

TEST(ConfigFields, EveryBindingAcceptsItsKeysAndRejectsTyposWithOrigin)
{
    struct Reader
    {
        std::string typo;   ///< a misspelt key under the reader's prefix
        std::string what;   ///< the reader's diagnostic name
        std::vector<std::string> keys;
        std::function<Status(const Config &)> read;
    };
    const std::vector<Reader> readers = {
        {"ehp.cu", "node-config", boundKeys<NodeConfig>(),
         [](const Config &c) {
             return tryNodeConfigFromConfig(c).status();
         }},
        {"cluster.node", "cluster-config", boundKeys<ClusterConfig>(),
         [](const Config &c) {
             return tryClusterConfigFromConfig(c).status();
         }},
        {"cluster.ras.dram_ecc_on", "resilience-config",
         boundKeys<ResilienceSpec>(),
         [](const Config &c) {
             return tryResilienceSpecFromConfig(c).status();
         }},
        {"taskgraph.sizes", "taskgraph-config", boundKeys<TaskGraphSpec>(),
         [](const Config &c) {
             return tryTaskGraphSpecFromConfig(c).status();
         }},
    };

    // One full-machine file setting every bound key: every reader
    // accepts it, so each prefix exemption holds.
    Config full = nodeConfigToConfig(NodeConfig{});
    full.merge(clusterConfigToConfig(ClusterConfig{}));
    full.merge(resilienceSpecToConfig(ResilienceSpec{}));
    full.merge(taskGraphSpecToConfig(TaskGraphSpec{}));
    std::set<std::string> all;
    for (const Reader &r : readers) {
        for (const std::string &k : r.keys) {
            EXPECT_TRUE(all.insert(k).second) << k << " bound twice";
            EXPECT_TRUE(full.has(k)) << k;
        }
    }
    EXPECT_EQ(all.size(), 18u + 12u + 11u + 9u);
    EXPECT_EQ(full.size(), all.size());
    const std::string text = full.toString();
    for (const Reader &r : readers)
        EXPECT_TRUE(r.read(Config::fromString(text)).ok()) << r.what;

    // A typo under one prefix is rejected by that reader alone, with
    // the line it came from.
    for (const Reader &owner : readers) {
        const std::string bad = text + owner.typo + " = 1\n";
        Expected<Config> cfg = Config::tryFromString(bad, "machine.ini");
        ASSERT_TRUE(cfg.ok());
        const std::string where =
            "machine.ini:" + std::to_string(all.size() + 1);
        for (const Reader &r : readers) {
            Status s = r.read(*cfg);
            if (&r != &owner) {
                EXPECT_TRUE(s.ok()) << r.what << ": " << s.toString();
                continue;
            }
            ASSERT_FALSE(s.ok()) << owner.typo;
            EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
            EXPECT_EQ(s.message(), "unknown " + owner.what + " key '" +
                                       owner.typo + "' (" + where + ")");
        }
    }
}

TEST(ConfigFields, IntegersOutsideTheirFieldTypeAreOutOfRange)
{
    struct Case
    {
        const char *line;
        const char *key;
        std::function<Status(const Config &)> read;
    };
    auto node = [](const Config &c) {
        return tryNodeConfigFromConfig(c).status();
    };
    auto cluster = [](const Config &c) {
        return tryClusterConfigFromConfig(c).status();
    };
    auto dag = [](const Config &c) {
        return tryTaskGraphSpecFromConfig(c).status();
    };
    const Case cases[] = {
        {"ehp.cus = 4294967616", "ehp.cus", node},
        {"extmem.interfaces = -4294967288", "extmem.interfaces", node},
        {"cluster.nodes = 4294967396", "cluster.nodes", cluster},
        {"taskgraph.size = 4294967312", "taskgraph.size", dag},
        {"taskgraph.seed = -1", "taskgraph.seed", dag},
    };
    for (const Case &c : cases) {
        Config cfg = unwrapOrFatal(Config::tryFromString(c.line, "f.ini"));
        Status s = c.read(cfg);
        ASSERT_FALSE(s.ok()) << c.line;
        EXPECT_EQ(s.code(), ErrorCode::OutOfRange) << s.toString();
        EXPECT_NE(s.message().find("'" + std::string(c.key) +
                                   "' (f.ini:1)"),
                  std::string::npos)
            << s.toString();
    }

    // The edges of the type still load (then face tryValidate).
    TaskGraphSpec s = unwrapOrFatal(tryTaskGraphSpecFromConfig(
        Config::fromString("taskgraph.seed = 18446744073709551615\n")));
    EXPECT_EQ(s.seed, 18446744073709551615ull);
    Status big = tryTaskGraphSpecFromConfig(
                     Config::fromString("taskgraph.seed = "
                                        "18446744073709551616\n"))
                     .status();
    EXPECT_EQ(big.code(), ErrorCode::ParseError) << big.toString();
    Status cus = tryNodeConfigFromConfig(
                     Config::fromString("ehp.cus = 2147483647\n"))
                     .status();
    EXPECT_NE(cus.message().find("bad CU count 2147483647"),
              std::string::npos)
        << cus.toString();
}

TEST(ConfigFields, SetDoubleWritesExactlyAndShortAsBefore)
{
    Config c;
    c.set("a", 0.1);
    c.set("b", 0.1 + 0.2);
    c.set("c", 1.0 / 3.0);
    c.set("d", 1e12);
    c.set("e", 320.0);
    EXPECT_EQ(*c.tryGetString("a"), "0.1");
    EXPECT_EQ(*c.tryGetString("b"), "0.30000000000000004");
    EXPECT_EQ(*c.tryGetString("d"), "1000000000000");
    EXPECT_EQ(*c.tryGetString("e"), "320");
    Config back = Config::fromString(c.toString());
    EXPECT_EQ(*back.tryGetDouble("a"), 0.1);
    EXPECT_EQ(*back.tryGetDouble("b"), 0.1 + 0.2);
    EXPECT_EQ(*back.tryGetDouble("c"), 1.0 / 3.0);
}

TEST(EnumNames, ParseListsTheCanonicalNamesAndKeepsAliases)
{
    Expected<ClusterTopology> t = tryClusterTopologyFromName("hypercube");
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(t.status().message(),
              "unknown cluster topology 'hypercube' "
              "(want fat-tree, dragonfly, or 3d-torus)");
    EXPECT_EQ(enumNames(ScalingMode{}).tryParse("linear").status().message(),
              "unknown scaling mode 'linear' (want weak or strong)");
    EXPECT_EQ(*enumNames(ScalingMode{}).tryParse("Strong"),
              ScalingMode::Strong);
    EXPECT_EQ(*tryClusterTopologyFromName("CLOS"), ClusterTopology::FatTree);
    EXPECT_EQ(*tryAppFromName("comdlj"), App::CoMDLJ);
    EXPECT_EQ(allApps().size(), 8u);
    EXPECT_EQ(allApps().front(), App::MaxFlops);
    EXPECT_EQ(allApps().back(), App::SNAP);
}
