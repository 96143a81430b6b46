#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "telemetry/metrics.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace perfbench {

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
setupSeconds(const Options &opt)
{
    return static_cast<double>(monotonicNs() - opt.startNs) * 1e-9;
}

std::vector<double>
PhaseResult::rates() const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < passSeconds.size(); ++i)
        out.push_back(passWork[i] / passSeconds[i]);
    return out;
}

double
PhaseResult::medianRate() const
{
    return median(rates());
}

double
medianRoundMs(const std::vector<PhaseResult> &phases)
{
    std::vector<double> ms(phases.front().passes, 0.0);
    for (const PhaseResult &p : phases) {
        for (std::size_t k = 0; k < ms.size(); ++k)
            ms[k] += p.passSeconds[k] * 1e3;
    }
    return median(ms);
}

std::vector<PhaseResult>
runRounds(double budget_s, const std::vector<Pass> &phases)
{
    std::vector<PhaseResult> out(phases.size());
    const double start = nowSeconds();
    std::uint64_t rounds = 0;
    double elapsed = 0.0;
    do {
        for (std::size_t p = 0; p < phases.size(); ++p) {
            PhaseResult &r = out[p];
            const double t0 = nowSeconds();
            r.passWork.push_back(phases[p](rounds));
            r.passSeconds.push_back(nowSeconds() - t0);
            r.seconds += r.passSeconds.back();
            ++r.passes;
        }
        ++rounds;
        elapsed = nowSeconds() - start;
    } while (elapsed + elapsed / static_cast<double>(rounds) <= budget_s);
    return out;
}

void
section(const std::string &title)
{
    std::cout << "\n== " << title << "\n";
}

void
printPhase(const std::string &name, const PhaseResult &phase)
{
    const std::vector<double> rates = phase.rates();
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  %-10s passes %4llu  %8.3f s  pass rate median %.6g, "
                  "IQR/median %.4f\n",
                  name.c_str(), static_cast<unsigned long long>(phase.passes),
                  phase.seconds, median(rates), iqrShare(rates));
    std::cout << buf;
}

void
emitTrace(const Options &opt, const Tracer &tracer)
{
    section("self time per span name (traced phase)");
    char buf[200];
    std::snprintf(buf, sizeof buf, "  %-34s %10s %14s %14s\n", "span",
                  "count", "total ms", "self ms");
    std::cout << buf;
    for (const LayerTime &lt : tracer.layerTimes()) {
        std::snprintf(buf, sizeof buf, "  %-34s %10llu %14.3f %14.3f\n",
                      lt.name.c_str(),
                      static_cast<unsigned long long>(lt.count),
                      lt.totalUs / 1e3, lt.selfUs / 1e3);
        std::cout << buf;
    }
    const std::string path = opt.traceDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    std::ofstream os(path);
    tracer.writeChromeTrace(os);
    os.flush();
    std::cout << "  chrome trace: " << path
              << (os ? "" : " (write FAILED)") << "\n";
}

void
reportOverhead(Report &report, double untraced, double traced,
               bool higher_is_better)
{
    const double ratio =
        higher_is_better ? untraced / traced : traced / untraced;
    report.metric("trace.overhead_pct", (ratio - 1.0) * 100.0, "%");
}

ProgramCounts
ProgramCounts::now()
{
    using ena::telemetry::counter;
    const ena::ThreadPool &pool = ena::ThreadPool::global();
    ProgramCounts c;
    c.thermalIterations = counter("thermal.solver_iterations").value();
    c.simEvents = counter("sim.events_processed").value();
    c.nodeEvaluations = counter("node.evaluations").value();
    c.memoHits = counter("dse.memo_hits").value();
    c.memoMisses = counter("dse.memo_misses").value();
    c.poolJobs = pool.jobsSubmitted();
    c.poolTasks = pool.tasksExecuted();
    return c;
}

ProgramCounts
ProgramCounts::operator-(const ProgramCounts &o) const
{
    ProgramCounts d;
    d.thermalIterations = thermalIterations - o.thermalIterations;
    d.simEvents = simEvents - o.simEvents;
    d.nodeEvaluations = nodeEvaluations - o.nodeEvaluations;
    d.memoHits = memoHits - o.memoHits;
    d.memoMisses = memoMisses - o.memoMisses;
    d.poolJobs = poolJobs - o.poolJobs;
    d.poolTasks = poolTasks - o.poolTasks;
    return d;
}

void
reportLayers(Report &report, const Tracer &tracer,
             const ProgramCounts &delta, double rounds)
{
    // Span-name prefixes of each layer; the rest (artifact drivers,
    // the regeneration itself) is glue that no layer owns.
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        layers = {
            {"thermal", {"thermal."}},
            {"sim", {"sim.", "mem."}},
            {"core", {"core.", "dse.", "power."}},
            {"scaleout", {"cluster.", "ras.", "taskgraph."}},
            {"server", {"server."}},
        };
    const double total_us = tracer.selfUs("");
    std::map<std::string, double> self_us;
    for (const auto &[layer, prefixes] : layers) {
        double &us = self_us[layer];
        for (const std::string &prefix : prefixes)
            us += tracer.selfUs(prefix);
        report.metric(layer + ".share", total_us > 0.0 ? us / total_us : 0.0,
                      "ratio");
    }
    auto per_round = [&](std::uint64_t n) {
        return static_cast<double>(n) / rounds;
    };
    // The layer's work per second of its own self time; 0 where the
    // workload has no span of that layer.
    auto per_self_s = [&](std::uint64_t n, const std::string &layer) {
        const double us = self_us.at(layer);
        return us > 0.0 ? static_cast<double>(n) / (us * 1e-6) : 0.0;
    };
    report.metric("thermal.iterations_per_s",
                  per_self_s(delta.thermalIterations, "thermal"), "1/s");
    report.metric("sim.events_per_s", per_self_s(delta.simEvents, "sim"),
                  "1/s");
    report.metric("core.evaluations_per_s",
                  per_self_s(delta.nodeEvaluations, "core"), "1/s");
    report.metric("thermal.iterations", per_round(delta.thermalIterations),
                  "count");
    report.metric("sim.events", per_round(delta.simEvents), "count");
    report.metric("core.evaluations", per_round(delta.nodeEvaluations),
                  "count");
    const std::uint64_t lookups = delta.memoHits + delta.memoMisses;
    report.metric("core.memo_hit_ratio",
                  lookups ? static_cast<double>(delta.memoHits) /
                                static_cast<double>(lookups)
                          : 0.0,
                  "ratio");
    report.metric("pool.jobs", per_round(delta.poolJobs), "count");
    report.metric("pool.tasks", per_round(delta.poolTasks), "count");
    report.metric("pool.tasks_per_job",
                  delta.poolJobs ? static_cast<double>(delta.poolTasks) /
                                       static_cast<double>(delta.poolJobs)
                                 : 0.0,
                  "count");
}

} // namespace perfbench
