/**
 * @file
 * Integration tests of the full cycle-level chiplet study (Fig. 7):
 * GPU chiplets + CUs + caches + NoC + HBM + CPU clusters, end to end.
 * Scaled down where possible to keep runtimes short.
 */

#include <gtest/gtest.h>

#include "core/chiplet_study.hh"

using namespace ena;

namespace {

ChipletStudyParams
quickParams(App app)
{
    ChipletStudyParams p = ChipletStudyParams::forApp(app);
    p.cusPerChiplet = 4;
    p.wavefrontsPerCu = 4;
    p.memOpsPerWavefront = 150;
    p.aggregateBwGbs = 400.0;
    return p;
}

} // anonymous namespace

TEST(ChipletStudy, RunsToCompletionAndReportsSaneNumbers)
{
    ChipletStudy study;
    ChipletRunResult r =
        study.run(App::CoMD, quickParams(App::CoMD), false);
    EXPECT_GT(r.runtimeUs, 0.0);
    EXPECT_GT(r.eventsProcessed, 1000u);
    EXPECT_GE(r.remoteTrafficFrac, 0.0);
    EXPECT_LE(r.remoteTrafficFrac, 1.0);
    EXPECT_GE(r.l2HitRate, 0.0);
    EXPECT_LE(r.l2HitRate, 1.0);
    EXPECT_GT(r.meanHops, 0.0);
}

TEST(ChipletStudy, RunCountsEveryIssuedMemoryOp)
{
    // Every wavefront issues its whole quota before the run drains, in
    // both modes, serially and sharded into PDES domains.
    ChipletStudy study;
    ChipletStudyParams p = quickParams(App::LULESH);
    const std::uint64_t quota =
        static_cast<std::uint64_t>(p.gpuChiplets * p.cusPerChiplet *
                                   p.wavefrontsPerCu) *
        p.memOpsPerWavefront;
    for (int domains : {1, 4}) {
        p.domains = domains;
        for (bool monolithic : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << domains << " domains, "
                         << (monolithic ? "monolithic" : "chiplet"));
            EXPECT_EQ(study.run(App::LULESH, p, monolithic).memOps, quota);
        }
    }
}

TEST(ChipletStudy, MonolithicModeUsesSingleHopFabric)
{
    ChipletStudy study;
    ChipletRunResult r =
        study.run(App::CoMD, quickParams(App::CoMD), true);
    EXPECT_NEAR(r.meanHops, 1.0, 1e-9);   // crossbar counts one hop
}

TEST(ChipletStudy, DeterministicAcrossRuns)
{
    ChipletStudy study;
    ChipletRunResult a =
        study.run(App::SNAP, quickParams(App::SNAP), false);
    ChipletRunResult b =
        study.run(App::SNAP, quickParams(App::SNAP), false);
    EXPECT_DOUBLE_EQ(a.runtimeUs, b.runtimeUs);
    EXPECT_DOUBLE_EQ(a.remoteTrafficFrac, b.remoteTrafficFrac);
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
}

TEST(ChipletStudy, RemoteTrafficDominatesWithoutPlacement)
{
    // Paper Finding 1: out-of-chiplet traffic dominates (60-95%). With
    // pure interleaving across 8 stacks, ~7/8 of misses are remote.
    ChipletStudy study;
    ChipletStudyParams p = quickParams(App::XSBench);
    p.localPlacementFrac = 0.0;
    ChipletRunResult r = study.run(App::XSBench, p, false);
    EXPECT_GT(r.remoteTrafficFrac, 0.80);
    EXPECT_LT(r.remoteTrafficFrac, 0.95);
}

TEST(ChipletStudy, LocalPlacementReducesRemoteTraffic)
{
    ChipletStudy study;
    ChipletStudyParams base = quickParams(App::CoMD);
    base.localPlacementFrac = 0.0;
    ChipletStudyParams placed = base;
    placed.localPlacementFrac = 0.6;
    double remote_base =
        study.run(App::CoMD, base, false).remoteTrafficFrac;
    double remote_placed =
        study.run(App::CoMD, placed, false).remoteTrafficFrac;
    EXPECT_LT(remote_placed, remote_base - 0.15);
}

TEST(ChipletStudy, CompareProducesPaperShapedRow)
{
    ChipletStudy study;
    Fig7Row row = study.compare(App::XSBench, quickParams(App::XSBench));
    // Chiplet design loses some performance but not much (paper: worst
    // 13%; generous band for the scaled configuration).
    EXPECT_GT(row.perfVsMonolithicPct, 70.0);
    EXPECT_LT(row.perfVsMonolithicPct, 109.0);
    EXPECT_GT(row.remoteTrafficPct, 55.0);
    EXPECT_LT(row.remoteTrafficPct, 97.0);
}

TEST(ChipletStudy, DefaultParamsVaryByApp)
{
    ChipletStudyParams xs = ChipletStudyParams::forApp(App::XSBench);
    ChipletStudyParams snap = ChipletStudyParams::forApp(App::SNAP);
    EXPECT_LT(xs.localPlacementFrac, snap.localPlacementFrac);
    EXPECT_GT(xs.privateBytesPerWf, snap.privateBytesPerWf);
}

TEST(ChipletStudy, CpuTrafficTogglesCleanly)
{
    ChipletStudy study;
    ChipletStudyParams p = quickParams(App::SNAP);
    p.cpuTraffic = false;
    ChipletRunResult r = study.run(App::SNAP, p, false);
    EXPECT_GT(r.runtimeUs, 0.0);
}
