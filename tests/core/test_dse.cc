/**
 * @file
 * Tests of the design-space explorer mechanics (correctness of the
 * search itself; the paper-anchored outcomes live in
 * test_calibration.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/dse.hh"
#include "core/sweep_journal.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

DseGrid
tinyGrid()
{
    DseGrid g;
    g.cus = {256, 320};
    g.freqsGhz = {0.9, 1.0};
    g.bwsTbs = {2.0, 3.0};
    return g;
}

} // anonymous namespace

TEST(DseGrid, PaperGridSize)
{
    DseGrid g = DseGrid::paperGrid();
    EXPECT_EQ(g.cus.size(), 7u);         // 192..384 step 32
    EXPECT_EQ(g.freqsGhz.size(), 10u);   // 0.7..1.5 + 925 MHz
    EXPECT_EQ(g.bwsTbs.size(), 7u);      // 1..7
    EXPECT_EQ(g.size(), 490u);
    // The 925 MHz point from Table II is present.
    bool has925 = false;
    for (double f : g.freqsGhz)
        has925 |= f == 0.925;
    EXPECT_TRUE(has925);
}

TEST(Dse, SweepEnumeratesWholeGrid)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    auto points = dse.sweep(PowerOptConfig::none());
    EXPECT_EQ(points.size(), 8u);
    for (const DsePoint &p : points) {
        EXPECT_GT(p.geomeanFlops, 0.0);
        EXPECT_GT(p.meanBudgetPowerW, 0.0);
        EXPECT_GE(p.maxBudgetPowerW, p.meanBudgetPowerW);
        EXPECT_EQ(p.feasible, p.maxBudgetPowerW <= 160.0);
        // The memoized sweep scores exactly as the scalar helpers do.
        EXPECT_EQ(p.geomeanFlops, evaluator().geomeanFlops(p.cfg));
        EXPECT_EQ(p.meanBudgetPowerW, evaluator().meanBudgetPower(p.cfg));
        EXPECT_EQ(p.maxBudgetPowerW, evaluator().maxBudgetPower(p.cfg));
    }
}

TEST(Dse, BestMeanIsTheFeasibleArgmax)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    NodeConfig best = dse.findBestMean(PowerOptConfig::none());
    double best_perf = evaluator().geomeanFlops(best);
    for (const DsePoint &p : dse.sweep(PowerOptConfig::none())) {
        if (p.feasible) {
            EXPECT_LE(p.geomeanFlops, best_perf + 1e-6);
        }
    }
}

TEST(Dse, BestForAppRespectsBudget)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    for (App app : {App::CoMD, App::LULESH, App::MaxFlops}) {
        AppBest best = dse.findBestForApp(app, PowerOptConfig::none());
        EXPECT_LE(best.budgetPowerW, 160.0);
        EXPECT_GT(best.flops, 0.0);
    }
}

TEST(Dse, BestForAppBeatsBestMeanForThatApp)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    NodeConfig best_mean = dse.findBestMean(PowerOptConfig::none());
    for (App app : allApps()) {
        AppBest best = dse.findBestForApp(app, PowerOptConfig::none());
        double mean_perf =
            evaluator().evaluate(best_mean, app).perf.flops;
        EXPECT_GE(best.flops, mean_perf - 1e-6) << appName(app);
    }
}

TEST(Dse, TighterBudgetNeverImprovesPerformance)
{
    DesignSpaceExplorer loose(evaluator(), tinyGrid(), 200.0);
    DesignSpaceExplorer tight(evaluator(), tinyGrid(), 150.0);
    double p_loose = evaluator().geomeanFlops(
        loose.findBestMean(PowerOptConfig::none()));
    double p_tight = evaluator().geomeanFlops(
        tight.findBestMean(PowerOptConfig::none()));
    EXPECT_GE(p_loose, p_tight - 1e-6);
}

TEST(Dse, OptimizationsEnlargeTheFeasibleSet)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    auto count = [&](const PowerOptConfig &opts) {
        int n = 0;
        for (const DsePoint &p : dse.sweep(opts)) {
            if (p.feasible)
                ++n;
        }
        return n;
    };
    EXPECT_GT(count(PowerOptConfig::all()),
              count(PowerOptConfig::none()));
}

TEST(Dse, TableIIRowsCoverEveryApp)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    auto rows = dse.tableII(NodeConfig::bestMean());
    ASSERT_EQ(rows.size(), allApps().size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].app, allApps()[i]);
        rows[i].bestConfig.validate();
        rows[i].bestConfigOpt.validate();
    }
}

TEST(Dse, InvalidGridPointIsQuarantinedNotFatal)
{
    DseGrid g = tinyGrid();
    g.cus.push_back(-64);   // fails NodeConfig::tryValidate
    DesignSpaceExplorer dse(evaluator(), g, 160.0);
    auto points = dse.sweep(PowerOptConfig::none(), nullptr);
    ASSERT_EQ(points.size(), g.size());
    int quarantined = 0;
    for (const DsePoint &p : points) {
        if (p.ok) {
            EXPECT_TRUE(p.error.empty());
            EXPECT_GT(p.geomeanFlops, 0.0);
        } else {
            ++quarantined;
            EXPECT_EQ(p.cfg.cus, -64);
            EXPECT_FALSE(p.feasible);
            EXPECT_NE(p.error.find("bad CU count"), std::string::npos);
        }
    }
    EXPECT_EQ(quarantined, 4);   // -64 crossed with 2 freqs x 2 bws
}

TEST(Dse, JournaledSweepResumesWithoutRecomputing)
{
    const std::string path = "test_dse_journal.tmp";
    std::remove(path.c_str());
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    const auto reference = dse.sweep(PowerOptConfig::none(), nullptr);

    {
        auto j = std::move(SweepJournal::open(path)).value();
        dse.sweep(PowerOptConfig::none(), j.get());
        EXPECT_EQ(j->appendedRecords(), reference.size());
    }
    auto j = std::move(SweepJournal::open(path)).value();
    ASSERT_EQ(j->loadedRecords(), reference.size());
    const auto resumed = dse.sweep(PowerOptConfig::none(), j.get());
    EXPECT_EQ(j->appendedRecords(), 0u);   // every point replayed

    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        // Bitwise equality: the journal stores hexfloats.
        EXPECT_EQ(resumed[i].geomeanFlops, reference[i].geomeanFlops);
        EXPECT_EQ(resumed[i].meanBudgetPowerW,
                  reference[i].meanBudgetPowerW);
        EXPECT_EQ(resumed[i].maxBudgetPowerW,
                  reference[i].maxBudgetPowerW);
        EXPECT_EQ(resumed[i].feasible, reference[i].feasible);
        EXPECT_EQ(resumed[i].ok, reference[i].ok);
    }
    std::remove(path.c_str());
}

TEST(DseDeathTest, ImpossibleBudgetIsFatal)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 1.0);
    EXPECT_EXIT(dse.findBestMean(PowerOptConfig::none()),
                testing::ExitedWithCode(1), "no feasible configuration");
}

TEST(DseDeathTest, EmptyGridIsFatal)
{
    EXPECT_EXIT(DesignSpaceExplorer(evaluator(), DseGrid{}, 160.0),
                testing::ExitedWithCode(1), "empty DSE grid");
}
