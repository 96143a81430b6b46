/**
 * @file
 * design_sweep: the analytic stack on inputs that never repeat.
 *
 * Phase A, per pass: a fresh seeded grid from the paper's ranges
 * through DesignSpaceExplorer::sweep -> findBestMean -> tableII.
 * Phase B, per pass: another fresh grid swept into a fresh
 * SweepJournal (the write path), then resumed from it.
 * Phase C, per pass: ScaleOutStudy::topologySweep,
 * ResilientScaleOutStudy::sweep and TaskGraphStudy::sweep cells on a
 * seeded node config, app, machine sizes and DAG.
 *
 * End-to-end: op_ms, the median time of one round (one pass of each
 * phase). Also printed: configs_per_s (A), journaled_configs_per_s
 * (B's write sweep) and, traced, scaleout.cells_per_s (C).
 * Checks, outside the timing: sampled grid
 * points bit-identical to scalar NodeEvaluator evaluation, journaled
 * and resumed sweeps bit-identical to an unjournaled sweep of the same
 * grid, and no quarantined point or cell.
 */

#include <cstdio>
#include <iostream>

#include "cluster/resilient_cluster.hh"
#include "cluster/scale_out_study.hh"
#include "common/calibration.hh"
#include "core/dse.hh"
#include "core/sweep_journal.hh"
#include "harness/inputs.hh"
#include "taskgraph/scheduler.hh"
#include "taskgraph/taskgraph_study.hh"
#include "util/string_utils.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace ena;

/** Grid points per pass checked against scalar evaluation. */
constexpr std::size_t kSamplesPerPass = 3;
/** Every n-th journal pass is re-swept without a journal and compared. */
constexpr std::uint64_t kJournalCheckEvery = 8;

std::uint64_t
digestOf(const std::vector<DsePoint> &pts)
{
    Digest d;
    for (const DsePoint &p : pts) {
        d.add(static_cast<std::uint64_t>(p.cfg.cus));
        d.add(p.cfg.freqGhz);
        d.add(p.cfg.bwTbs);
        d.add(p.geomeanFlops);
        d.add(p.meanBudgetPowerW);
        d.add(p.maxBudgetPowerW);
        d.add(static_cast<std::uint64_t>(p.feasible * 2 + p.ok));
    }
    return d.value();
}

std::size_t
quarantined(const std::vector<DsePoint> &pts)
{
    std::size_t n = 0;
    for (const DsePoint &p : pts)
        n += !p.ok;
    return n;
}

struct JournalRun
{
    std::uint64_t pass = 0;
    std::uint64_t written = 0;   ///< digest of the journaled sweep
    std::uint64_t resumed = 0;   ///< digest of the resumed sweep
    std::size_t loaded = 0;      ///< records the resume found
};

struct Measured
{
    PhaseResult a, b, c;
    std::uint64_t configsA = 0, configsB = 0;
    double sweepS = 0.0, table2S = 0.0, journalS = 0.0, resumeS = 0.0;
    std::vector<double> journalRates;   ///< per phase-B pass
    std::uint64_t table2Calls = 0;
    std::uint64_t memoHits = 0, memoMisses = 0;
    std::vector<DsePoint> samples;   ///< checked against scalar eval
    std::vector<JournalRun> journals;
    std::uint64_t quarantinedPoints = 0, failedCells = 0;
    std::uint64_t clusterCells = 0, rasCells = 0, schedules = 0;
    double clusterS = 0.0, rasS = 0.0, taskgraphS = 0.0;
    double tasksScheduled = 0.0;
    std::uint64_t clusterPerPass = 0, rasPerPass = 0, schedulesPerPass = 0;
};

template <typename Fn>
auto
timed(Tracer *tracer, const char *name, double *acc, Fn &&fn)
{
    Tracer::Span span(tracer, name);
    const double t0 = nowSeconds();
    auto out = fn();
    *acc += nowSeconds() - t0;
    return out;
}

Measured
measure(const Options &opt, const NodeEvaluator &eval, double budget_s,
        Tracer *tracer)
{
    Measured m;
    const double budget = cal::nodePowerBudgetW;

    auto phase_a = [&](std::uint64_t pass) {
        DesignSpaceExplorer dse(
            eval, designGridFor(opt.seed, kPlainGrids, pass), budget);
        std::vector<DsePoint> pts =
            timed(tracer, "core.sweep", &m.sweepS, [&] {
                return dse.sweep(PowerOptConfig::none(), nullptr);
            });
        NodeConfig best = [&] {
            Tracer::Span span(tracer, "core.find_best_mean");
            return dse.findBestMean(PowerOptConfig::none());
        }();
        timed(tracer, "core.table2", &m.table2S,
              [&] { return dse.tableII(best); });
        ++m.table2Calls;
        m.configsA += pts.size();
        m.quarantinedPoints += quarantined(pts);
        m.memoHits += dse.memoCache().hits();
        m.memoMisses += dse.memoCache().misses();
        for (std::size_t k = 0; k < kSamplesPerPass; ++k)
            m.samples.push_back(pts[(pass * 7919 + k * 163) % pts.size()]);
        return static_cast<double>(pts.size());
    };

    auto phase_b = [&](std::uint64_t pass) {
        DesignSpaceExplorer dse(
            eval, designGridFor(opt.seed, kJournalGrids, pass), budget);
        const std::string path =
            opt.workDir + "/journal-" + std::to_string(pass) + ".log";
        std::remove(path.c_str());
        JournalRun jr;
        jr.pass = pass;
        const double write0 = m.journalS;
        std::vector<DsePoint> written =
            timed(tracer, "core.journal_write", &m.journalS, [&] {
                auto journal = unwrapOrFatal(SweepJournal::open(path));
                return dse.sweep(PowerOptConfig::none(), journal.get());
            });
        std::vector<DsePoint> resumed =
            timed(tracer, "core.journal_resume", &m.resumeS, [&] {
                auto journal = unwrapOrFatal(SweepJournal::open(path));
                jr.loaded = journal->loadedRecords();
                return dse.sweep(PowerOptConfig::none(), journal.get());
            });
        std::remove(path.c_str());
        jr.written = digestOf(written);
        jr.resumed = digestOf(resumed);
        m.configsB += written.size();
        m.journalRates.push_back(static_cast<double>(written.size()) /
                                 (m.journalS - write0));
        m.quarantinedPoints += quarantined(written) + quarantined(resumed);
        m.journals.push_back(jr);
        return static_cast<double>(written.size());
    };

    auto phase_c = [&](std::uint64_t pass) {
        const CellsInput in = makeCellsInput(opt.seed, pass);
        const ClusterConfig base = ClusterConfig::exascale();
        const auto &topos = allClusterTopologies();
        auto topo = timed(tracer, "cluster.topology_sweep", &m.clusterS, [&] {
            return ScaleOutStudy(eval, base)
                .topologySweep(in.cfg, in.app, in.comm, topos,
                               in.nodeCounts, nullptr);
        });
        auto ras = timed(tracer, "ras.sweep", &m.rasS, [&] {
            return ResilientScaleOutStudy(eval, base)
                .sweep(in.cfg, in.app, in.comm,
                       standardProtectionVariants(), topos, in.nodeCounts,
                       nullptr);
        });
        std::uint64_t schedules = 0;
        for (const TaskGraphSpec &spec : in.dags) {
            const TaskDag dag = spec.build();
            auto sched =
                timed(tracer, "taskgraph.sweep", &m.taskgraphS, [&] {
                    return TaskGraphStudy(eval, base)
                        .sweep(dag, in.cfg, allDagSchedulers(), topos,
                               in.nodeCounts);
                });
            for (const auto &p : sched)
                m.failedCells += !p.ok;
            schedules += sched.size();
            m.tasksScheduled +=
                static_cast<double>(sched.size() * dag.size());
        }
        for (const auto &p : topo)
            m.failedCells += !p.ok;
        for (const auto &p : ras)
            m.failedCells += !p.ok;
        m.clusterCells += topo.size();
        m.rasCells += ras.size();
        m.schedules += schedules;
        m.clusterPerPass = topo.size();
        m.rasPerPass = ras.size();
        m.schedulesPerPass = schedules;
        return static_cast<double>(topo.size() + ras.size() + schedules);
    };

    const std::vector<PhaseResult> phases =
        runRounds(budget_s, {phase_a, phase_b, phase_c});
    m.a = phases[0];
    m.b = phases[1];
    m.c = phases[2];
    return m;
}

/** Bitwise output checks, all outside the timed phases. */
void
check(const Options &opt, const NodeEvaluator &eval, const Measured &m,
      Report &report)
{
    report.ops(m.configsA + m.configsB, m.quarantinedPoints);
    report.ops(m.clusterCells + m.rasCells + m.schedules, m.failedCells);
    for (const DsePoint &p : m.samples) {
        const NodeConfig &cfg = p.cfg;
        if (bitsOf(p.geomeanFlops) != bitsOf(eval.geomeanFlops(cfg)) ||
            bitsOf(p.meanBudgetPowerW) != bitsOf(eval.meanBudgetPower(cfg)) ||
            bitsOf(p.maxBudgetPowerW) != bitsOf(eval.maxBudgetPower(cfg)))
            report.fail("sweep point " + cfg.label() +
                        " differs from scalar evaluation");
    }
    for (const JournalRun &jr : m.journals) {
        if (jr.pass % kJournalCheckEvery != 0)
            continue;
        DesignSpaceExplorer dse(
            eval, designGridFor(opt.seed, kJournalGrids, jr.pass),
            cal::nodePowerBudgetW);
        const std::vector<DsePoint> plain =
            dse.sweep(PowerOptConfig::none(), nullptr);
        const std::uint64_t ref = digestOf(plain);
        if (jr.written != ref)
            report.fail(strformat("pass %llu: journaled sweep differs from "
                                  "the unjournaled sweep",
                                  static_cast<unsigned long long>(jr.pass)));
        if (jr.resumed != ref || jr.loaded != plain.size())
            report.fail(strformat("pass %llu: resumed sweep (%zu records) "
                                  "differs from the unjournaled sweep",
                                  static_cast<unsigned long long>(jr.pass),
                                  jr.loaded));
    }
}

} // anonymous namespace

int
runDesignSweep(const Options &opt, Report &report)
{
    // Set-up: the evaluator and pass 0's grid, cells and DAGs (every
    // pass generates its own inputs on the fly, deterministically).
    const NodeEvaluator eval;
    const DseGrid grid = designGridFor(opt.seed, kPlainGrids, 0);
    const CellsInput cells = makeCellsInput(opt.seed, 0);
    std::vector<TaskDag> dags;
    for (const TaskGraphSpec &spec : cells.dags)
        dags.push_back(spec.build());
    const double setup_s = setupSeconds(opt);
    if (opt.setupOnly) {
        report.metric("setup_s", setup_s, "s");
        return 0;
    }

    section("input properties");
    std::cout << "  grid per pass: " << grid.cus.size() << " CU x "
              << grid.freqsGhz.size() << " freq x " << grid.bwsTbs.size()
              << " bw = " << grid.size()
              << " configs, fresh every pass (input repeat share 0)\n"
              << "  pass 0 grid:\n" << serializeGrid(grid)
              << "  cells per pass: " << allClusterTopologies().size()
              << " topologies x " << cells.nodeCounts.size()
              << " machine sizes, x " << standardProtectionVariants().size()
              << " protections (ras), x " << allDagSchedulers().size()
              << " schedulers x " << cells.dags.size()
              << " DAGs (taskgraph)\n  pass 0 DAGs:";
    for (const TaskDag &dag : dags)
        std::cout << " " << dag.label();
    std::cout << "\n";

    if (!opt.trace) {
        Measured m = measure(opt, eval, opt.seconds, nullptr);
        check(opt, eval, m, report);
        report.metric("setup_s", setup_s, "s");
        report.metric("op_ms", medianRoundMs({m.a, m.b, m.c}), "ms");
        report.metric("configs_per_s", m.a.medianRate(), "1/s");
        report.metric("journaled_configs_per_s", median(m.journalRates),
                      "1/s");
        section("phases");
        printPhase("A dse", m.a);
        printPhase("B journal", m.b);
        printPhase("C cells", m.c);
        return 0;
    }

    Measured plain = measure(opt, eval, opt.seconds / 2, nullptr);
    check(opt, eval, plain, report);
    Tracer tracer;
    const ProgramCounts counts0 = ProgramCounts::now();
    Measured m = measure(opt, eval, opt.seconds / 2, &tracer);
    const ProgramCounts counts = ProgramCounts::now() - counts0;
    check(opt, eval, m, report);
    reportLayers(report, tracer, counts, static_cast<double>(m.a.passes));

    // The recompute cost the memo must beat: scalar evaluation of the
    // workload's own configs, every app.
    double eval_s = 0.0;
    std::size_t evals = 0;
    {
        Tracer::Span span(&tracer, "core.scalar_eval");
        const double t0 = nowSeconds();
        double sink = 0.0;
        for (int cus : grid.cus)
            for (double f : grid.freqsGhz)
                for (double bw : grid.bwsTbs) {
                    NodeConfig cfg;
                    cfg.cus = cus;
                    cfg.freqGhz = f;
                    cfg.bwTbs = bw;
                    for (App app : allApps()) {
                        sink += eval.evaluate(cfg, app).perf.flops;
                        ++evals;
                    }
                }
        eval_s = nowSeconds() - t0;
        if (!(sink > 0.0))
            report.fail("scalar evaluation returned no flops");
    }

    const double lookups = static_cast<double>(m.memoHits + m.memoMisses);
    report.metric("core.eval_ns", eval_s * 1e9 / static_cast<double>(evals),
                  "ns");
    report.metric("core.sweep_ns_per_config",
                  m.sweepS * 1e9 / static_cast<double>(m.configsA), "ns");
    report.metric("core.table2_ms",
                  m.table2S * 1e3 / static_cast<double>(m.table2Calls), "ms");
    report.metric("core.memo_lookups",
                  lookups / static_cast<double>(m.a.passes), "count");
    report.metric("core.dse_memo_hit_ratio",
                  lookups ? static_cast<double>(m.memoHits) / lookups : 0.0,
                  "ratio");
    report.metric("core.journal_append_us_per_point",
                  m.journalS * 1e6 / static_cast<double>(m.configsB), "us");
    report.metric("core.journal_resume_us_per_point",
                  m.resumeS * 1e6 / static_cast<double>(m.configsB), "us");
    report.metric("scaleout.cells_per_s", plain.c.medianRate(), "1/s");
    report.metric("cluster.cells", static_cast<double>(m.clusterPerPass),
                  "count");
    report.metric("cluster.us_per_cell",
                  m.clusterS * 1e6 / static_cast<double>(m.clusterCells),
                  "us");
    report.metric("ras.cells", static_cast<double>(m.rasPerPass), "count");
    report.metric("ras.us_per_cell",
                  m.rasS * 1e6 / static_cast<double>(m.rasCells), "us");
    report.metric("taskgraph.schedules",
                  static_cast<double>(m.schedulesPerPass), "count");
    report.metric("taskgraph.us_per_schedule",
                  m.taskgraphS * 1e6 / static_cast<double>(m.schedules),
                  "us");
    report.metric("taskgraph.tasks_per_s", m.tasksScheduled / m.taskgraphS,
                  "1/s");
    reportOverhead(report, medianRoundMs({plain.a, plain.b, plain.c}),
                   medianRoundMs({m.a, m.b, m.c}), false);
    emitTrace(opt, tracer);
    return 0;
}

} // namespace perfbench
