/**
 * @file
 * What every workload shares: the command-line options, the phase
 * runner that measures whole passes for a time budget, the repeated
 * set-up timer, and the entry points of the four workloads.
 */

#ifndef PERFBENCH_WORKLOADS_WORKLOAD_HH
#define PERFBENCH_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/stats.hh"
#include "harness/trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";   ///< scratch files (journals, socket)
    std::string traceDir = ".";  ///< Chrome traces of traced runs
    /** Process start on the monotonic clock (ns): the launcher's
     *  timestamp taken just before it started this process. */
    std::int64_t startNs = 0;
    /** Stop after set-up, reporting only setup_s. */
    bool setupOnly = false;
};

/** CLOCK_MONOTONIC (steady_clock) now, in nanoseconds. */
std::int64_t monotonicNs();

/**
 * Seconds from process start (the launcher's timestamp when given,
 * main() entry otherwise) to now: the workload's set-up time, measured
 * when its first timed operation is about to begin.
 */
double setupSeconds(const Options &opt);

/** Outcome of one measured phase. */
struct PhaseResult
{
    std::uint64_t passes = 0;
    double seconds = 0.0;                ///< host time of all passes
    std::vector<double> passSeconds;     ///< per pass
    std::vector<double> passWork;        ///< per pass, the pass's unit

    /** Work / time of each pass. */
    std::vector<double> rates() const;

    /** Median over passes of work / time: one disturbed pass cannot
     *  move it. */
    double medianRate() const;
};

/** Median over rounds of the time, in ms, that one round of
 *  @p phases (one pass of each) took. */
double medianRoundMs(const std::vector<PhaseResult> &phases);

/** One pass of a phase: runs pass @p index, returns the work done. */
using Pass = std::function<double(std::uint64_t index)>;

/**
 * Run rounds for about @p budget_s seconds: round k runs pass k of
 * every phase in turn, so each phase is sampled across the whole run
 * rather than in one slice of it (the host's speed drifts over tens of
 * seconds). Always at least one round; another only while the mean
 * round still fits in what is left. Whole passes keep the input mix of
 * every run identical however fast the host is.
 */
std::vector<PhaseResult> runRounds(double budget_s,
                                   const std::vector<Pass> &phases);

/** Print a section heading on stdout. */
void section(const std::string &title);

/** Print a phase's pass count and the spread of its per-pass rates. */
void printPhase(const std::string &name, const PhaseResult &phase);

/** Print @p tracer's per-name self-time table and write its Chrome
 *  trace to <traceDir>/<workload>-seed<seed>.trace.json. */
void emitTrace(const Options &opt, const Tracer &tracer);

/** Add trace.overhead_pct: how much slower the traced phase ran than
 *  the untraced one, from the primary metric of each. */
void reportOverhead(Report &report, double untraced, double traced,
                    bool higher_is_better);

/** The program's own counters (and the pool's) that the per-layer
 *  metrics read, as deltas around the traced phase. */
struct ProgramCounts
{
    std::uint64_t thermalIterations = 0;   ///< thermal.solver_iterations
    std::uint64_t simEvents = 0;           ///< sim.events_processed
    std::uint64_t nodeEvaluations = 0;     ///< node.evaluations
    std::uint64_t memoHits = 0;            ///< dse.memo_hits
    std::uint64_t memoMisses = 0;          ///< dse.memo_misses
    std::uint64_t poolJobs = 0;
    std::uint64_t poolTasks = 0;

    static ProgramCounts now();
    ProgramCounts operator-(const ProgramCounts &o) const;
};

/**
 * Add the per-layer metrics every workload reports from its traced
 * phase: each layer's share of the spans' self time (thermal, sim,
 * core, scaleout, server, by span-name prefix), and the program's
 * counters per round of the phase (@p rounds > 0).
 */
void reportLayers(Report &report, const Tracer &tracer,
                  const ProgramCounts &delta, double rounds);

int runPaperArtifacts(const Options &opt, Report &report);
int runChipletSim(const Options &opt, Report &report);
int runDesignSweep(const Options &opt, Report &report);
int runServerMix(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_WORKLOAD_HH
