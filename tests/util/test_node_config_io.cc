/**
 * @file
 * Tests for the Config <-> NodeConfig bindings.
 */

#include <gtest/gtest.h>

#include "common/node_config_io.hh"

using namespace ena;

TEST(NodeConfigIo, DefaultsWhenEmpty)
{
    NodeConfig n = nodeConfigFromConfig(Config{});
    EXPECT_EQ(n.cus, 320);
    EXPECT_DOUBLE_EQ(n.freqGhz, 1.0);
    EXPECT_DOUBLE_EQ(n.bwTbs, 3.0);
    EXPECT_DOUBLE_EQ(n.ext.dramGb, 768.0);
    EXPECT_FALSE(n.opts.any());
}

TEST(NodeConfigIo, ParsesAllSections)
{
    Config cfg = Config::fromString(
        "ehp.cus = 256\n"
        "ehp.freq_ghz = 1.2\n"
        "ehp.bw_tbs = 4\n"
        "extmem.dram_gb = 384\n"
        "extmem.nvm_gb = 384\n"
        "opts.ntc = true\n"
        "opts.compression = true\n");
    NodeConfig n = nodeConfigFromConfig(cfg);
    EXPECT_EQ(n.cus, 256);
    EXPECT_DOUBLE_EQ(n.freqGhz, 1.2);
    EXPECT_DOUBLE_EQ(n.bwTbs, 4.0);
    EXPECT_DOUBLE_EQ(n.ext.nvmGb, 384.0);
    EXPECT_TRUE(n.opts.ntc);
    EXPECT_TRUE(n.opts.compression);
    EXPECT_FALSE(n.opts.asyncCu);
}

TEST(NodeConfigIo, RoundTrip)
{
    NodeConfig n;
    n.cus = 224;
    n.freqGhz = 0.925;
    n.bwTbs = 5.0;
    n.ext = ExtMemConfig::hybrid();
    n.opts = PowerOptConfig::all();
    NodeConfig back = nodeConfigFromConfig(nodeConfigToConfig(n));
    EXPECT_EQ(back.cus, n.cus);
    EXPECT_DOUBLE_EQ(back.freqGhz, n.freqGhz);
    EXPECT_DOUBLE_EQ(back.bwTbs, n.bwTbs);
    EXPECT_DOUBLE_EQ(back.ext.nvmGb, n.ext.nvmGb);
    EXPECT_TRUE(back.opts.ntc);
    EXPECT_TRUE(back.opts.lpLinks);
}

TEST(NodeConfigIo, TryLoadReportsUnknownKeyWithOrigin)
{
    Config cfg = unwrapOrFatal(
        Config::tryFromString("ehp.cuz = 320\n", "node.ini"));
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(n.status().message().find("ehp.cuz"), std::string::npos);
    EXPECT_NE(n.status().message().find("node.ini:1"),
              std::string::npos);
}

TEST(NodeConfigIo, TryLoadReportsMalformedValueWithOrigin)
{
    Config cfg = unwrapOrFatal(Config::tryFromString(
        "ehp.cus = 256\nehp.freq_ghz = fast\n", "node.ini"));
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::ParseError);
    EXPECT_NE(n.status().message().find("ehp.freq_ghz"),
              std::string::npos);
    EXPECT_NE(n.status().message().find("node.ini:2"),
              std::string::npos);
    EXPECT_NE(n.status().message().find("'fast'"), std::string::npos);
}

TEST(NodeConfigIo, TryLoadReportsRangeViolationsAsStatus)
{
    Config cfg = Config::fromString("ehp.cus = 0\n");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::OutOfRange);
    EXPECT_NE(n.status().message().find("bad CU count"),
              std::string::npos);
}

TEST(NodeConfigIo, LeadingZeroCuCountIsDecimal)
{
    // Octal would load 0320 as 208 CUs.
    Config cfg = Config::fromString("ehp.cus = 0320\n");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_TRUE(n.ok()) << n.status().message();
    EXPECT_EQ(n.value().cus, 320);
}

TEST(NodeConfigIoDeathTest, UnknownKeyIsFatal)
{
    Config cfg = Config::fromString("ehp.cuz = 320\n");
    EXPECT_EXIT(nodeConfigFromConfig(cfg), testing::ExitedWithCode(1),
                "unknown node-config key");
}

TEST(NodeConfigIoDeathTest, InvalidValueIsFatal)
{
    Config cfg = Config::fromString("ehp.cus = 0\n");
    EXPECT_EXIT(nodeConfigFromConfig(cfg), testing::ExitedWithCode(1),
                "bad CU count");
}
