/**
 * @file
 * Tests of the EHP package thermal model against the paper's Section
 * V-D claims.
 */

#include <gtest/gtest.h>

#include "core/node_evaluator.hh"
#include "telemetry/metrics.hh"
#include "thermal/package_model.hh"

using namespace ena;

namespace {

PowerBreakdown
powerFor(App app, const NodeConfig &cfg)
{
    static NodeEvaluator eval;
    return eval.evaluate(cfg, app).power;
}

} // anonymous namespace

TEST(PackageModel, AllAppsBelowDramLimitAtBestMean)
{
    // Paper Finding 1 (Fig. 10): every kernel stays below 85 C.
    EhpPackageModel model;
    for (App app : allApps()) {
        auto r = model.solve(NodeConfig::bestMean(),
                             powerFor(app, NodeConfig::bestMean()));
        EXPECT_LT(r.peakDramC, EhpPackageModel::dramLimitC)
            << appName(app);
        EXPECT_GT(r.peakDramC, model.params().ambientC)
            << appName(app);
    }
}

TEST(PackageModel, BottomDramDieIsHottest)
{
    // The GPU die below heats the stack from underneath.
    EhpPackageModel model;
    auto r = model.solve(NodeConfig::bestMean(),
                         powerFor(App::CoMDLJ, NodeConfig::bestMean()));
    EXPECT_NEAR(r.peakDramC, r.peakBottomDramC, 1e-9);
    EXPECT_GT(r.peakGpuC, r.peakBottomDramC);
}

TEST(PackageModel, MorePowerRunsHotter)
{
    EhpPackageModel model;
    PowerBreakdown lo = powerFor(App::XSBench, NodeConfig::bestMean());
    PowerBreakdown hi = powerFor(App::CoMDLJ, NodeConfig::bestMean());
    ASSERT_GT(hi.cuDyn, lo.cuDyn);
    EXPECT_GT(model.solve(NodeConfig::bestMean(), hi).peakDramC,
              model.solve(NodeConfig::bestMean(), lo).peakDramC);
}

TEST(PackageModel, FewerActiveTilesConcentrateHeat)
{
    // Same total CU power on fewer tiles -> higher power density ->
    // hotter DRAM above.
    EhpPackageModel model;
    PowerBreakdown p = powerFor(App::CoMD, NodeConfig::bestMean());
    NodeConfig few = NodeConfig::bestMean();
    few.cus = 192;
    NodeConfig many = NodeConfig::bestMean();
    many.cus = 384;
    EXPECT_GT(model.solve(few, p).peakDramC,
              model.solve(many, p).peakDramC);
}

TEST(PackageModel, MaxFlopsDoesNotStressMemoryTemperature)
{
    // Paper: MaxFlops has high CU power but nearly no DRAM activity;
    // its DRAM peak must stay in the same band as the balanced apps
    // rather than above them all.
    EhpPackageModel model;
    double maxflops =
        model.solve(NodeConfig::bestMean(),
                    powerFor(App::MaxFlops, NodeConfig::bestMean()))
            .peakDramC;
    double comdlj =
        model.solve(NodeConfig::bestMean(),
                    powerFor(App::CoMDLJ, NodeConfig::bestMean()))
            .peakDramC;
    EXPECT_LT(maxflops, comdlj + 1.0);
}

TEST(PackageModel, HeatMapShowsTileContrast)
{
    EhpPackageModel model;
    PowerBreakdown p = powerFor(App::SNAP, NodeConfig::bestMean());
    // solve() on the same grid registers the thermal counters.
    model.solve(NodeConfig::bestMean(), p);
    telemetry::Counter &iters =
        telemetry::counter("thermal.solver_iterations");
    telemetry::Histogram &per_solve =
        telemetry::histogram("thermal.solver_iterations_per_solve");
    const std::uint64_t iters0 = iters.value();
    const std::uint64_t solves0 = per_solve.count();

    std::string art = model.heatMap(NodeConfig::bestMean(), p);
    // The rendering uses the full glyph ramp: both a cool glyph and a
    // hot glyph must appear.
    EXPECT_NE(art.find('@'), std::string::npos);
    EXPECT_NE(art.find(' '), std::string::npos);

    // The heat map's solve is counted like any other: one pass.
    EXPECT_EQ(per_solve.count() - solves0, 1u);
    EXPECT_EQ(iters.value() - iters0, 1u);
}

TEST(PackageModel, HeatMapDimensionsMatchGrid)
{
    PackageThermalParams tp;
    tp.gridN = 16;
    EhpPackageModel model(tp);
    auto r = model.solve(NodeConfig::bestMean(),
                         powerFor(App::SNAP, NodeConfig::bestMean()));
    EXPECT_EQ(r.bottomDram.nx, 16u);
    EXPECT_EQ(r.bottomDram.ny, 16u);
    EXPECT_EQ(r.bottomDram.t.size(), 256u);
}

TEST(PackageModel, BetterCoolingLowersTemperature)
{
    PackageThermalParams strong;
    strong.sinkResistance = 0.5;
    PackageThermalParams weak;
    weak.sinkResistance = 2.5;
    PowerBreakdown p = powerFor(App::CoMD, NodeConfig::bestMean());
    EXPECT_LT(EhpPackageModel(strong)
                  .solve(NodeConfig::bestMean(), p)
                  .peakDramC,
              EhpPackageModel(weak)
                  .solve(NodeConfig::bestMean(), p)
                  .peakDramC);
}

TEST(PackageModel, SolveCountsOnePass)
{
    // Each direct solve bumps the iteration counter and the per-solve
    // histogram once, so perfbench's passes-per-solve reads 1.
    EhpPackageModel model;
    PowerBreakdown p = powerFor(App::LULESH, NodeConfig::bestMean());
    model.solve(NodeConfig::bestMean(), p);
    telemetry::Counter &iters =
        telemetry::counter("thermal.solver_iterations");
    telemetry::Histogram &per_solve =
        telemetry::histogram("thermal.solver_iterations_per_solve");
    const std::uint64_t iters0 = iters.value();
    const std::uint64_t solves0 = per_solve.count();
    for (int i = 0; i < 3; ++i)
        model.solve(NodeConfig::bestMean(), p);
    EXPECT_EQ(iters.value() - iters0, 3u);
    EXPECT_EQ(per_solve.count() - solves0, 3u);
}
