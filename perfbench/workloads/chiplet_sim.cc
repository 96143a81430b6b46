/**
 * @file
 * chiplet_sim: the cycle-level EHP model of Fig. 7, per app over
 * seeded trace seeds. Phase A runs the monolithic crossbar, the
 * virtual-circuit interposer and the detailed NoC with one event queue
 * (ChipletStudyParams::domains = 1) on the calling thread; phase B
 * runs the two chiplet NoC models with domains = 4 (the study's hub +
 * one domain per GPU chiplet layout) on the two-worker pool. Phase C
 * runs a TwoLevelStudy external-memory point and a synthetic ping-pong
 * built on the public Simulation API at 1 and 4 domains.
 *
 * End-to-end: op_ms, the median time of one round (one pass of each
 * phase). Also printed: simulated GPU memory operations per host
 * second of phase A and of phase B (sim.memops_per_s,
 * sim.pdes_memops_per_s), counted from the inputs (chiplets x CUs x
 * wavefronts x memOpsPerWavefront; ChipletRunResult::memOps is never
 * set by the study).
 * Check: every pass-0 domains = 4 run's stats dump is bit-identical to
 * the same layout executed with serial windows (outside the timing).
 */

#include <iostream>
#include <sstream>

#include "core/chiplet_study.hh"
#include "core/twolevel_study.hh"
#include "harness/inputs.hh"
#include "sim/simulation.hh"
#include "util/rng.hh"
#include "util/string_utils.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace ena;

/** The study's params for phase A / B runs. */
enum class Mode
{
    Monolithic,
    Vc,
    Detailed,
    PdesVc,
    PdesDetailed,
};

constexpr Mode kSerialModes[] = {Mode::Monolithic, Mode::Vc,
                                 Mode::Detailed};
constexpr Mode kPdesModes[] = {Mode::PdesVc, Mode::PdesDetailed};
constexpr int kPdesDomainsParam = 4;
/** Memory ops per wavefront: an eighth of Fig. 7's 400, so a 20 s run
 *  holds several rounds of all fifteen simulations and op_ms is a
 *  median of more than two or three of them. */
constexpr std::uint64_t kMemOpsPerWavefront = 50;
constexpr int kPingPongDomains = 4;

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Monolithic:
        return "sim.monolithic";
      case Mode::Vc:
        return "sim.vc";
      case Mode::Detailed:
        return "sim.detailed";
      case Mode::PdesVc:
        return "sim.pdes_vc";
      case Mode::PdesDetailed:
        return "sim.pdes_detailed";
    }
    return "?";
}

ChipletStudyParams
paramsFor(App app, std::uint64_t trace_seed, Mode m)
{
    ChipletStudyParams p = ChipletStudyParams::forApp(app);
    p.seed = trace_seed;
    p.memOpsPerWavefront = kMemOpsPerWavefront;
    p.captureStats = true;
    p.detailedNoc = m == Mode::Detailed || m == Mode::PdesDetailed;
    if (m == Mode::PdesVc || m == Mode::PdesDetailed)
        p.domains = kPdesDomainsParam;
    return p;
}

double
memOpsOf(const ChipletStudyParams &p)
{
    return static_cast<double>(p.gpuChiplets) * p.cusPerChiplet *
           p.wavefrontsPerCu * static_cast<double>(p.memOpsPerWavefront);
}

/**
 * Synthetic ping-pong: balls bounce between objects spread over the
 * domains; every hop does a little local work and posts the ball to a
 * peer one channel latency (or more) later through postCrossDomain,
 * which is a plain scheduleLambda with one domain.
 */
class PingPong : public SimObject
{
  public:
    static constexpr Tick kLatency = 1000;   // 1 ns channel

    PingPong(Simulation &sim, const std::string &name, int index,
             std::uint64_t seed, int balls, int hops)
        : SimObject(sim, name), index_(index), seed_(seed), balls_(balls),
          hops_(hops),
          statHops_(sim.stats(), name + ".hops", "balls received"),
          statSum_(sim.stats(), name + ".sum", "payload checksum")
    {
    }

    void setPeers(std::vector<PingPong *> peers) { peers_ = std::move(peers); }

    void
    startup() override
    {
        Rng rng(seed_ + static_cast<std::uint64_t>(index_));
        for (int b = 0; b < balls_; ++b)
            send(rng.next(), 0, kLatency * (1 + rng.below(4)));
    }

  private:
    void
    receive(std::uint64_t ball, int hop)
    {
        ++statHops_;
        std::uint64_t h = ball;
        for (int i = 0; i < 16; ++i) {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
        }
        statSum_ += static_cast<double>(h % 1009);
        if (hop + 1 < hops_)
            send(h, hop + 1, kLatency * (1 + h % 4));
    }

    void
    send(std::uint64_t ball, int hop, Tick delay)
    {
        PingPong *peer = peers_[ball % peers_.size()];
        sim().postCrossDomain(
            peer->domain(), curTick() + delay,
            [peer, ball, hop] { peer->receive(ball, hop); }, "ball");
    }

    int index_;
    std::uint64_t seed_;
    int balls_;
    int hops_;
    std::vector<PingPong *> peers_;
    StatScalar statHops_;
    StatScalar statSum_;
};

struct PingPongResult
{
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    double seconds = 0.0;
    std::string dump;
};

PingPongResult
runPingPong(int domains, std::uint64_t seed)
{
    constexpr int kObjects = 16;
    Simulation sim;
    if (domains > 1) {
        sim.setDomains(domains);
        sim.setLookahead(PingPong::kLatency);
    }
    std::vector<PingPong *> objs;
    for (int i = 0; i < kObjects; ++i) {
        Simulation::DomainScope scope(sim, i % domains);
        objs.push_back(sim.create<PingPong>(strformat("pp%d", i), i, seed,
                                            8, 2000));
    }
    for (int i = 0; i < kObjects; ++i) {
        std::vector<PingPong *> peers;
        for (int k : {1, 3, 5, 7})
            peers.push_back(objs[static_cast<std::size_t>((i + k) % kObjects)]);
        objs[static_cast<std::size_t>(i)]->setPeers(std::move(peers));
    }
    PingPongResult r;
    const double t0 = nowSeconds();
    r.events = sim.run();
    r.seconds = nowSeconds() - t0;
    r.windows = sim.windowsRun();
    std::ostringstream ss;
    sim.stats().dump(ss);
    r.dump = ss.str();
    return r;
}

/** Accumulated host time / work of one kind of run. */
struct Tally
{
    double seconds = 0.0;
    double work = 0.0;   ///< memops or events
    std::uint64_t runs = 0;

    void
    add(double s, double w)
    {
        seconds += s;
        work += w;
        ++runs;
    }
    double rate() const { return work / seconds; }
    double msPerRun() const { return seconds * 1e3 / runs; }
};

/** Pass-0 results: the exact, seed-determined simulated values. */
struct PassZero
{
    std::vector<ChipletRunResult> vc;         ///< phase A interposer runs
    std::vector<ChipletRunResult> pdes;       ///< phase B runs
    std::vector<ChipletStudyParams> pdesParams;
    std::vector<App> pdesApps;
    double simulatedUs = 0.0;
    std::uint64_t serialEvents = 0;
    double achievedMissRate = 0.0;
    std::uint64_t pingWindows = 0;
    Digest stats;
};

struct Measured
{
    Tally modes[5];
    Tally serialKernel;     ///< phase A events
    Tally twolevel;
    Tally pingSerial;
    Tally pingPdes;
    PhaseResult a, b, c;
    PassZero zero;
    std::uint64_t sims = 0;
};

Measured
measure(const Options &opt, double budget_s, Tracer *tracer)
{
    Measured m;
    ChipletStudy study;
    auto simulate = [&](const ChipletPass &in, std::size_t i, Mode mode,
                        std::uint64_t pass) {
        const App app = in.apps[i];
        const ChipletStudyParams p = paramsFor(app, in.traceSeeds[i], mode);
        const bool mono = mode == Mode::Monolithic;
        const double t0 = nowSeconds();
        ChipletRunResult r;
        {
            Tracer::Span span(tracer, modeName(mode));
            r = study.run(app, p, mono);
        }
        const double s = nowSeconds() - t0;
        m.modes[static_cast<int>(mode)].add(s, memOpsOf(p));
        ++m.sims;
        if (p.domains == 1)
            m.serialKernel.add(s, static_cast<double>(r.eventsProcessed));
        if (pass == 0) {
            PassZero &z = m.zero;
            z.simulatedUs += r.runtimeUs;
            z.stats.add(r.statsDump);
            if (p.domains == 1)
                z.serialEvents += r.eventsProcessed;
            if (mode == Mode::Vc)
                z.vc.push_back(r);
            if (p.domains > 1) {
                z.pdes.push_back(r);
                z.pdesParams.push_back(p);
                z.pdesApps.push_back(app);
            }
        }
        return memOpsOf(p);
    };

    auto phase_a = [&](std::uint64_t pass) {
        const ChipletPass in = makeChipletPass(opt.seed, pass);
        double memops = 0.0;
        for (std::size_t i = 0; i < in.apps.size(); ++i) {
            for (Mode mode : kSerialModes)
                memops += simulate(in, i, mode, pass);
        }
        return memops;
    };
    auto phase_b = [&](std::uint64_t pass) {
        const ChipletPass in = makeChipletPass(opt.seed, pass);
        double memops = 0.0;
        for (std::size_t i = 0; i < in.apps.size(); ++i) {
            for (Mode mode : kPdesModes)
                memops += simulate(in, i, mode, pass);
        }
        return memops;
    };
    auto phase_c = [&](std::uint64_t pass) {
        const ChipletPass in = makeChipletPass(opt.seed, pass);
        TwoLevelParams tp;
        tp.seed = in.twoLevelSeed;
        double t0 = nowSeconds();
        TwoLevelPoint pt;
        {
            Tracer::Span span(tracer, "mem.twolevel");
            pt = TwoLevelStudy().run(in.twoLevelApp, tp,
                                     in.twoLevelCapacity);
        }
        m.twolevel.add(nowSeconds() - t0, 1.0);
        PingPongResult serial, pdes;
        {
            Tracer::Span span(tracer, "sim.pingpong_serial");
            serial = runPingPong(1, in.pingPongSeed);
        }
        {
            Tracer::Span span(tracer, "sim.pingpong_pdes");
            pdes = runPingPong(kPingPongDomains, in.pingPongSeed);
        }
        m.pingSerial.add(serial.seconds, static_cast<double>(serial.events));
        m.pingPdes.add(pdes.seconds, static_cast<double>(pdes.events));
        m.sims += 3;
        if (pass == 0) {
            m.zero.achievedMissRate = pt.achievedMissRate;
            m.zero.simulatedUs += pt.runtimeUs;
            m.zero.pingWindows = pdes.windows;
            m.zero.stats.add(serial.dump);
            m.zero.stats.add(pdes.dump);
        }
        return 1.0;
    };
    const std::vector<PhaseResult> phases =
        runRounds(budget_s, {phase_a, phase_b, phase_c});
    m.a = phases[0];
    m.b = phases[1];
    m.c = phases[2];
    return m;
}

/** Pooled domains = 4 dumps must equal serial-window execution. */
void
checkPdes(const Measured &m, Report &report)
{
    ChipletStudy study;
    for (std::size_t i = 0; i < m.zero.pdes.size(); ++i) {
        ChipletStudyParams p = m.zero.pdesParams[i];
        p.serialWindows = true;
        ChipletRunResult serial = study.run(m.zero.pdesApps[i], p, false);
        report.ops(1);
        if (serial.statsDump != m.zero.pdes[i].statsDump ||
            serial.runtimeUs != m.zero.pdes[i].runtimeUs)
            report.fail(strformat(
                "%s %s: pooled domains=%d stats differ from serial "
                "windows",
                appName(m.zero.pdesApps[i]).c_str(),
                p.detailedNoc ? "detailed" : "virtual-circuit", p.domains));
    }
}

double
meanOf(const std::vector<ChipletRunResult> &rs,
       double ChipletRunResult::*field)
{
    double sum = 0.0;
    for (const ChipletRunResult &r : rs)
        sum += r.*field;
    return rs.empty() ? 0.0 : sum / static_cast<double>(rs.size());
}

} // anonymous namespace

int
runChipletSim(const Options &opt, Report &report)
{
    // Set-up: pass 0's inputs (trace seeds); every pass generates its
    // own, and every simulation builds its model inside the timed phases.
    const ChipletPass pass0 = makeChipletPass(opt.seed, 0);
    const double setup_s = setupSeconds(opt);
    if (opt.setupOnly) {
        report.metric("setup_s", setup_s, "s");
        return 0;
    }
    const ChipletStudyParams p0 =
        paramsFor(pass0.apps[0], pass0.traceSeeds[0], Mode::Vc);
    section("input properties");
    std::cout << "  simulations per pass: 9 at domains=1, 6 at domains="
              << kPdesDomainsParam << " (hub + " << p0.gpuChiplets
              << " chiplet domains), 1 two-level point, 2 ping-pongs\n"
              << "  GPU memory ops per simulation: " << memOpsOf(p0)
              << " (" << p0.gpuChiplets << " chiplets x "
              << p0.cusPerChiplet << " CUs x " << p0.wavefrontsPerCu
              << " wavefronts x " << p0.memOpsPerWavefront << ")\n"
              << "  pass 0 inputs:\n" << pass0.serialize();

    auto report_ops = [&](const Measured &m) { report.ops(m.sims); };

    if (!opt.trace) {
        Measured m = measure(opt, opt.seconds, nullptr);
        report_ops(m);
        checkPdes(m, report);
        report.metric("setup_s", setup_s, "s");
        report.metric("op_ms", medianRoundMs({m.a, m.b, m.c}), "ms");
        report.metric("sim.memops_per_s", m.a.medianRate(), "1/s");
        report.metric("sim.pdes_memops_per_s", m.b.medianRate(), "1/s");
        section("phases (memops per host second)");
        printPhase("A serial", m.a);
        printPhase("B pdes", m.b);
        printPhase("C other", m.c);
        return 0;
    }

    Measured plain = measure(opt, opt.seconds / 2, nullptr);
    report_ops(plain);
    Tracer tracer;
    const ProgramCounts counts0 = ProgramCounts::now();
    Measured m = measure(opt, opt.seconds / 2, &tracer);
    const ProgramCounts counts = ProgramCounts::now() - counts0;
    report_ops(m);
    checkPdes(m, report);

    const PassZero &z = m.zero;
    report.metric("sim.memops_per_s", plain.a.medianRate(), "1/s");
    report.metric("sim.pdes_memops_per_s", plain.b.medianRate(), "1/s");
    reportLayers(report, tracer, counts, static_cast<double>(m.a.passes));
    report.metric("sim.pass0_events", static_cast<double>(z.serialEvents),
                  "count");
    report.metric("sim.ns_per_event",
                  m.serialKernel.seconds * 1e9 / m.serialKernel.work, "ns");
    report.metric("sim.kernel_events_per_s", m.pingSerial.rate(), "1/s");
    report.metric("sim.kernel_pdes_events_per_s", m.pingPdes.rate(),
                  "1/s");
    report.metric("sim.windows", static_cast<double>(z.pingWindows),
                  "count");
    for (Mode mode : {Mode::Monolithic, Mode::Vc, Mode::Detailed,
                      Mode::PdesVc, Mode::PdesDetailed})
        report.metric(std::string(modeName(mode)) + "_ms",
                      m.modes[static_cast<int>(mode)].msPerRun(), "ms");
    report.metric("mem.twolevel_ms", m.twolevel.msPerRun(), "ms");
    report.metric("sim.simulated_us", z.simulatedUs, "us");
    report.metric("gpu.l2_hit_rate", meanOf(z.vc, &ChipletRunResult::l2HitRate),
                  "ratio");
    report.metric("noc.mean_hops", meanOf(z.vc, &ChipletRunResult::meanHops),
                  "count");
    report.metric("noc.mean_latency_ns",
                  meanOf(z.vc, &ChipletRunResult::meanNetLatencyNs), "ns");
    report.metric("noc.remote_traffic_frac",
                  meanOf(z.vc, &ChipletRunResult::remoteTrafficFrac),
                  "ratio");
    report.metric("mem.hbm_row_hit_rate",
                  meanOf(z.vc, &ChipletRunResult::hbmRowHitRate), "ratio");
    report.metric("mem.achieved_miss_rate", z.achievedMissRate, "ratio");
    report.metric("sim.stats_digest", z.stats.reportable(), "count");
    reportOverhead(report, medianRoundMs({plain.a, plain.b, plain.c}),
                   medianRoundMs({m.a, m.b, m.c}), false);
    emitTrace(opt, tracer);
    return 0;
}

} // namespace perfbench
