/**
 * @file
 * paper_artifacts: regenerate every paper artifact (Table I, Table II,
 * Figs. 4-14) through the study drivers the bench_fig* / bench_table*
 * mains call, each artifact from cold state as a user's invocation of
 * its bench starts: a fresh evaluator, a fresh DSE for the best-mean
 * configuration, fresh studies. The seed varies the Fig. 8 trace seed
 * and the artifact order only; Fig. 7 keeps the study's default trace
 * seed, the one its headline anchors are stated for (see
 * perfbench/README.md).
 *
 * End-to-end: op_ms, the median time of one full regeneration (also
 * printed in seconds as regen_s).
 * Checks: the EXPERIMENTS.md headline anchors; a digest of every
 * artifact's values is reported but not gated.
 */

#include <cmath>
#include <iostream>
#include <map>

#include "common/calibration.hh"
#include "core/chiplet_study.hh"
#include "core/dse.hh"
#include "core/studies.hh"
#include "core/thermal_study.hh"
#include "core/twolevel_study.hh"
#include "harness/inputs.hh"
#include "power/optimizations.hh"
#include "telemetry/metrics.hh"
#include "util/string_utils.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace ena;

/** Values the headline-anchor checks read, from one regeneration. */
struct Anchors
{
    NodeConfig bestMean;
    double nodeTf320 = 0.0;
    double systemEf320 = 0.0;
    double fig7TrafficMinPct = 1e9, fig7TrafficMaxPct = -1e9;
    double fig7WorstSlowdownPct = -1e9;
    double fig9ExtMinW = 1e9, fig9ExtMaxW = -1e9;
    double fig10MaxPeakC = -1e9;
    double fig12AllMinPct = 1e9, fig12AllMaxPct = -1e9;
};

struct Regen
{
    const ArtifactPlan &plan;
    Tracer *tracer;
    Anchors anchors;
    std::map<std::string, Digest> digests;
    std::map<std::string, double> artifactMs;
};

/** What bench::bestMean() computes on first use in a fresh process. */
NodeConfig
coldBestMean(const NodeEvaluator &eval, Tracer *tracer)
{
    Tracer::Span span(tracer, "dse.best_mean");
    DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                            cal::nodePowerBudgetW);
    return dse.findBestMean(PowerOptConfig::none());
}

void
addConfig(Digest &d, const NodeConfig &cfg)
{
    d.add(static_cast<std::uint64_t>(cfg.cus));
    d.add(cfg.freqGhz);
    d.add(cfg.bwTbs);
}

void
table1(Regen &, Digest &d)
{
    for (const KernelProfile &p : allProfiles()) {
        d.add(appName(p.app));
        d.add(categoryName(p.category));
        d.add(p.description);
        for (double v : {p.arithmeticIntensity, p.computeEfficiency,
                         p.cuScalingExp, p.freqScalingExp,
                         p.maxBandwidthTbs, p.extTrafficFraction,
                         p.compressRatio})
            d.add(v);
    }
}

std::vector<TableIIRow>
tableII(const NodeEvaluator &eval, const NodeConfig &best, Tracer *tracer)
{
    Tracer::Span span(tracer, "dse.table2");
    DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                            cal::nodePowerBudgetW);
    return dse.tableII(best);
}

void
table2(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    r.anchors.bestMean = best;
    addConfig(d, best);
    for (const TableIIRow &row : tableII(eval, best, r.tracer)) {
        addConfig(d, row.bestConfig);
        addConfig(d, row.bestConfigOpt);
        d.add(row.benefitNoOptPct);
        d.add(row.benefitWithOptPct);
    }
}

void
opbSweep(Regen &r, Digest &d, App app)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    Tracer::Span span(r.tracer, "core.opb_sweep");
    OpbSweepStudy study(eval, best);
    const std::vector<double> bws = OpbSweepStudy::paperBandwidths();
    const std::vector<double> freqs = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                       1.1, 1.2, 1.3, 1.4, 1.5};
    const std::vector<int> cus = {64,  96,  128, 160, 192, 224,
                                  256, 288, 320, 352, 384};
    for (const auto &curves : {study.sweepFrequency(app, bws, freqs),
                               study.sweepCuCount(app, bws, cus)}) {
        for (const OpbCurve &c : curves) {
            d.add(c.bwTbs);
            for (const OpbPoint &p : c.points) {
                d.add(p.opsPerByte);
                d.add(p.normPerf);
            }
        }
    }
}

void
fig7(Regen &r, Digest &d)
{
    Tracer::Span span(r.tracer, "sim.fig7_compare");
    ChipletStudy study;
    for (App app : {App::XSBench, App::SNAP, App::CoMD}) {
        Fig7Row row = study.compare(app, ChipletStudyParams::forApp(app));
        for (double v : {row.remoteTrafficPct, row.perfVsMonolithicPct,
                         row.chiplet.runtimeUs, row.monolithic.runtimeUs,
                         row.chiplet.l2HitRate, row.chiplet.meanHops})
            d.add(v);
        Anchors &a = r.anchors;
        a.fig7TrafficMinPct = std::min(a.fig7TrafficMinPct,
                                       row.remoteTrafficPct);
        a.fig7TrafficMaxPct = std::max(a.fig7TrafficMaxPct,
                                       row.remoteTrafficPct);
        a.fig7WorstSlowdownPct = std::max(
            a.fig7WorstSlowdownPct, 100.0 - row.perfVsMonolithicPct);
    }
}

void
fig8(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    {
        Tracer::Span span(r.tracer, "core.miss_rate");
        MissRateStudy study(eval, best);
        for (const MissRateSeries &s : study.run()) {
            for (const MissRatePoint &p : s.points)
                d.add(p.normPerf);
        }
    }
    Tracer::Span span(r.tracer, "mem.twolevel_sweep");
    TwoLevelParams p;
    p.seed = r.plan.fig8Seed;
    TwoLevelStudy twolevel;
    for (const TwoLevelPoint &pt :
         twolevel.sweep(App::XSBench, p, {1.0, 0.5, 0.25, 0.125})) {
        for (double v : {pt.capacityFraction, pt.achievedMissRate,
                         pt.runtimeUs, pt.normPerf})
            d.add(v);
    }
}

void
fig9(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    Tracer::Span span(r.tracer, "core.ext_memory");
    ExternalMemoryStudy study(eval, best);
    for (const ExtMemBar &b : study.run()) {
        const PowerBreakdown &p = b.power;
        for (double v : {p.serdesStatic, p.extMemStatic, p.serdesDyn,
                         p.extMemDyn, p.cuDyn, p.other(), p.total()})
            d.add(v);
        if (b.configName == "3D DRAM only") {
            r.anchors.fig9ExtMinW =
                std::min(r.anchors.fig9ExtMinW, p.externalPower());
            r.anchors.fig9ExtMaxW =
                std::max(r.anchors.fig9ExtMaxW, p.externalPower());
        }
    }
}

void
fig10(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    std::vector<TableIIRow> t2 = tableII(eval, best, r.tracer);
    Tracer::Span span(r.tracer, "thermal.run");
    ThermalStudy thermal(eval);
    for (const ThermalRow &row : thermal.run(best, t2)) {
        d.add(row.bestMeanPeakC);
        d.add(row.bestPerAppPeakC);
        addConfig(d, row.bestPerAppConfig);
        r.anchors.fig10MaxPeakC =
            std::max({r.anchors.fig10MaxPeakC, row.bestMeanPeakC,
                      row.bestPerAppPeakC});
    }
}

void
fig11(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    AppBest snap;
    {
        Tracer::Span span(r.tracer, "dse.best_for_app");
        DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                                cal::nodePowerBudgetW);
        snap = dse.findBestForApp(App::SNAP, PowerOptConfig::none());
    }
    ThermalStudy thermal(eval);
    for (const NodeConfig &cfg : {best, snap.cfg}) {
        Tracer::Span span(r.tracer, "thermal.heat_map");
        d.add(thermal.heatMap(cfg, App::SNAP));
    }
}

void
fig12(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig best = coldBestMean(eval, r.tracer);
    Tracer::Span span(r.tracer, "power.opt_savings");
    for (App app : allApps()) {
        EvalResult res = eval.evaluate(best, app);
        for (const OptSavings &s :
             evaluateOptSavings(eval.powerModel(), best,
                                res.perf.activity)) {
            d.add(s.savingsFrac);
            if (s.opt == PowerOpt::All) {
                const double pct = s.savingsFrac * 100.0;
                r.anchors.fig12AllMinPct =
                    std::min(r.anchors.fig12AllMinPct, pct);
                r.anchors.fig12AllMaxPct =
                    std::max(r.anchors.fig12AllMaxPct, pct);
            }
        }
    }
}

void
fig13(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    NodeConfig base = coldBestMean(eval, r.tracer);
    NodeConfig opt;
    {
        // What optimizedBestMean() computes on first use.
        Tracer::Span span(r.tracer, "dse.best_mean");
        DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                                cal::nodePowerBudgetW);
        opt = dse.findBestMean(PowerOptConfig::all());
        opt.opts = PowerOptConfig::all();
    }
    Tracer::Span span(r.tracer, "core.perf_per_watt");
    PerfPerWattStudy study(eval, base, opt);
    for (const PerfPerWattRow &row : study.run()) {
        d.add(row.basePerfPerWatt);
        d.add(row.optPerfPerWatt);
        d.add(row.improvementPct);
    }
}

void
fig14(Regen &r, Digest &d)
{
    NodeEvaluator eval;
    Tracer::Span span(r.tracer, "core.exascale");
    ExascaleProjector proj(eval);
    for (const ExascalePoint &p : proj.sweepCus({192, 224, 256, 288, 320})) {
        d.add(p.systemExaflops);
        d.add(p.systemMw);
        if (p.cus == 320) {
            r.anchors.systemEf320 = p.systemExaflops;
            r.anchors.nodeTf320 = p.systemExaflops * 1e6 / proj.nodes();
        }
    }
}

void
runArtifact(const std::string &id, Regen &r)
{
    static const std::map<std::string, void (*)(Regen &, Digest &)>
        drivers = {
            {"table1", table1},
            {"table2", table2},
            {"fig4", [](Regen &g, Digest &d) { opbSweep(g, d, App::MaxFlops); }},
            {"fig5", [](Regen &g, Digest &d) { opbSweep(g, d, App::CoMD); }},
            {"fig6", [](Regen &g, Digest &d) { opbSweep(g, d, App::LULESH); }},
            {"fig7", fig7},
            {"fig8", fig8},
            {"fig9", fig9},
            {"fig10", fig10},
            {"fig11", fig11},
            {"fig12", fig12},
            {"fig13", fig13},
            {"fig14", fig14},
        };
    const std::string span_name = "artifact." + id;
    const double t0 = nowSeconds();
    {
        Tracer::Span span(r.tracer, span_name.c_str());
        drivers.at(id)(r, r.digests[id]);
    }
    r.artifactMs[id] = (nowSeconds() - t0) * 1e3;
}

/** Rounds to @p v at @p places decimals. */
bool
roundsTo(double x, double v, int places)
{
    const double scale = std::pow(10.0, places);
    return std::round(x * scale) == std::round(v * scale);
}

/** The EXPERIMENTS.md headline anchors; each miss fails one op. */
void
checkAnchors(const Anchors &a, Report &report)
{
    const NodeConfig &b = a.bestMean;
    if (!(b.cus == 320 && b.freqGhz == 1.0 && b.bwTbs == 3.0))
        report.fail("best-mean config is " + b.label() +
                    ", expected 320cu@1.00GHz/3.0TBps");
    if (!roundsTo(a.nodeTf320, 18.64, 2))
        report.fail(strformat("Fig. 14 node TF at 320 CUs %.4f != 18.64",
                              a.nodeTf320));
    if (!roundsTo(a.systemEf320, 1.86, 2))
        report.fail(strformat("Fig. 14 system EF at 320 CUs %.4f != 1.86",
                              a.systemEf320));
    if (!(a.fig7TrafficMinPct >= 60.0 && a.fig7TrafficMaxPct <= 95.0))
        report.fail(strformat("Fig. 7 out-of-chiplet traffic %.1f-%.1f%% "
                              "outside 60-95%%",
                              a.fig7TrafficMinPct, a.fig7TrafficMaxPct));
    if (!(a.fig7WorstSlowdownPct <= 13.0))
        report.fail(strformat("Fig. 7 worst slowdown %.2f%% > 13%%",
                              a.fig7WorstSlowdownPct));
    if (!(std::round(a.fig9ExtMinW) >= 37.0 &&
          std::round(a.fig9ExtMaxW) <= 64.0))
        report.fail(strformat("Fig. 9 external power %.2f-%.2f W outside "
                              "37-64 W",
                              a.fig9ExtMinW, a.fig9ExtMaxW));
    if (!(a.fig10MaxPeakC < 85.0))
        report.fail(strformat("Fig. 10 peak DRAM %.2f C not under 85 C",
                              a.fig10MaxPeakC));
    if (!(roundsTo(a.fig12AllMinPct, 14.5, 1) &&
          roundsTo(a.fig12AllMaxPct, 21.2, 1)))
        report.fail(strformat("Fig. 12 combined savings %.2f-%.2f%% != "
                              "14.5-21.2%%",
                              a.fig12AllMinPct, a.fig12AllMaxPct));
}

struct PhaseOut
{
    PhaseResult phase;
    std::vector<Regen> regens;
};

PhaseOut
measure(double budget_s, Tracer *tracer,
        const std::vector<ArtifactPlan> &plans, Report &report)
{
    PhaseOut out;
    const Pass regen = [&](std::uint64_t pass) {
        const ArtifactPlan &plan = plans[pass % plans.size()];
        Regen r{plan, tracer, {}, {}, {}};
        Tracer::Span span(tracer, "regen");
        for (const std::string &id : plan.order)
            runArtifact(id, r);
        out.regens.push_back(std::move(r));
        return 1.0;
    };
    out.phase = runRounds(budget_s, {regen})[0];
    for (const Regen &r : out.regens) {
        report.ops(artifactIds().size());
        checkAnchors(r.anchors, report);
    }
    return out;
}

void
printDigests(const Regen &r)
{
    section("artifact digests (reported, not gated)");
    Digest all;
    for (const std::string &id : artifactIds()) {
        const Digest &d = r.digests.at(id);
        all.add(d.value());
        std::cout << "  " << id << " " << std::hex << d.value() << std::dec
                  << "\n";
    }
    std::cout << "  all " << std::hex << all.value() << std::dec << "\n";
}

} // anonymous namespace

int
runPaperArtifacts(const Options &opt, Report &report)
{
    // Set-up: the regeneration plans (artifact order, Fig. 8 seed) for
    // every regeneration a run can make. Each artifact then starts from
    // cold state inside the timed regeneration, as a user's run does.
    std::vector<ArtifactPlan> plans;
    for (std::uint64_t i = 0; i < 8; ++i)
        plans.push_back(makeArtifactPlan(opt.seed, i));
    const double setup_s = setupSeconds(opt);
    if (opt.setupOnly) {
        report.metric("setup_s", setup_s, "s");
        return 0;
    }

    section("input properties");
    std::cout << "  artifacts per regeneration: " << artifactIds().size()
              << "\n  first plan: " << plans[0].serialize();

    if (!opt.trace) {
        PhaseOut out = measure(opt.seconds, nullptr, plans, report);
        printDigests(out.regens.front());
        report.metric("setup_s", setup_s, "s");
        report.metric("op_ms", medianRoundMs({out.phase}), "ms");
        report.metric("regen_s", median(out.phase.passSeconds), "s");
        std::cout << "  regenerations: " << out.phase.passes << "\n";
        return 0;
    }

    PhaseOut plain = measure(opt.seconds / 2, nullptr, plans, report);
    Tracer tracer;
    telemetry::Histogram &per_solve =
        telemetry::histogram("thermal.solver_iterations_per_solve");
    const std::uint64_t solves0 = per_solve.count();
    const ProgramCounts counts0 = ProgramCounts::now();
    PhaseOut traced = measure(opt.seconds / 2, &tracer, plans, report);
    const ProgramCounts counts = ProgramCounts::now() - counts0;
    const double regens = static_cast<double>(traced.phase.passes);
    // Package solves bump the program's counters; the Fig. 11 heat maps
    // solve the same grid without them, so they are counted by span.
    std::uint64_t heat_maps = 0;
    for (const LayerTime &lt : tracer.layerTimes()) {
        if (lt.name == "thermal.heat_map")
            heat_maps = lt.count;
    }
    const double solves =
        static_cast<double>(per_solve.count() - solves0 + heat_maps) /
        regens;
    const double thermal_us = tracer.selfUs("thermal.");

    reportLayers(report, tracer, counts, regens);
    report.metric("thermal.solves", solves, "count");
    report.metric("thermal.ms_per_solve",
                  thermal_us / 1e3 / (solves * regens), "ms");
    for (const std::string &id : artifactIds()) {
        std::vector<double> ms;
        for (const Regen &r : traced.regens)
            ms.push_back(r.artifactMs.at(id));
        report.metric("artifact." + id + "_ms", median(ms), "ms");
    }
    reportOverhead(report, median(plain.phase.passSeconds),
                   median(traced.phase.passSeconds), false);
    printDigests(traced.regens.front());
    emitTrace(opt, tracer);
    return 0;
}

} // namespace perfbench
