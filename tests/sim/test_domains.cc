/**
 * @file
 * Unit tests for domain-sharded (conservative-window PDES) simulation:
 * build-domain scoping, cross-domain message windows, canonical barrier
 * ordering, and the bitwise pooled-vs-serial determinism bar.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.hh"
#include "telemetry/metrics.hh"
#include "util/string_utils.hh"

using namespace ena;

namespace {

constexpr Tick kLatency = 500;

/** Commutative ping-pong node: counters and checksums only, so any
 *  correct execution produces an identical stat dump. */
class Pinger : public SimObject
{
  public:
    Pinger(Simulation &sim, const std::string &name, int index,
           int rounds)
        : SimObject(sim, name), index_(index), rounds_(rounds),
          tickEv_([this] { tick(); }, name + ".tick"),
          statTicks_(sim.stats(), name + ".ticks", "local ticks"),
          statRecv_(sim.stats(), name + ".recv", "messages received"),
          statSum_(sim.stats(), name + ".sum", "payload checksum")
    {
    }

    void setPeer(Pinger *p) { peer_ = p; }

    void
    startup() override
    {
        schedule(tickEv_, 50 + 10 * index_);
    }

    void
    receive(std::uint64_t v)
    {
        ++statRecv_;
        statSum_ += static_cast<double>(v % 101);
    }

  private:
    void
    tick()
    {
        ++count_;
        ++statTicks_;
        if (peer_) {
            std::uint64_t v = count_ * 13ull + index_;
            Pinger *p = peer_;
            sim().postCrossDomain(
                p->domain(), curTick() + kLatency + count_ % 3 * 10,
                [p, v] { p->receive(v); }, "ping");
        }
        if (count_ < rounds_)
            schedule(tickEv_, 40 + (count_ + index_) % 5 * 20);
    }

    int index_;
    int rounds_;
    int count_ = 0;
    Pinger *peer_ = nullptr;
    EventFunctionWrapper tickEv_;
    StatScalar statTicks_;
    StatScalar statRecv_;
    StatScalar statSum_;
};

struct PingRun
{
    std::string dump;
    std::uint64_t events = 0;
    Tick finalTick = 0;
    std::uint64_t windows = 0;
};

PingRun
runPingers(int domains, bool serial_windows, int nodes = 6,
           int rounds = 200, int slices = 1)
{
    Simulation sim;
    if (domains > 1) {
        sim.setDomains(domains);
        sim.setLookahead(kLatency);
        sim.setSerialWindows(serial_windows);
    }
    std::vector<Pinger *> ps;
    for (int i = 0; i < nodes; ++i) {
        Simulation::DomainScope scope(sim,
                                      domains > 1 ? i % domains : 0);
        ps.push_back(
            sim.create<Pinger>(strformat("p%d", i), i, rounds));
    }
    for (int i = 0; i < nodes; ++i)
        ps[i]->setPeer(ps[(i + 1) % nodes]);

    PingRun r;
    if (slices <= 1) {
        r.events = sim.run();
    } else {
        // Fixed horizon sliced into bounded runs plus a final drain.
        const Tick horizon = 60000;
        for (int s = 1; s <= slices; ++s)
            r.events += sim.run(horizon * s / slices);
        r.events += sim.run();
    }
    r.finalTick = sim.curTick();
    r.windows = sim.windowsRun();
    std::ostringstream ss;
    sim.stats().dump(ss);
    r.dump = ss.str();
    return r;
}

/** Receiver that logs payloads in arrival order (order-sensitive, for
 *  the canonical-barrier-order test). */
class Collector : public SimObject
{
  public:
    Collector(Simulation &sim, const std::string &name)
        : SimObject(sim, name)
    {
    }

    std::vector<int> log;
};

/** Fires once and posts payloads to a Collector in another domain. */
class Emitter : public SimObject
{
  public:
    Emitter(Simulation &sim, const std::string &name, Collector *to,
            Tick when, Tick arrival, std::vector<int> payloads)
        : SimObject(sim, name), to_(to), arrival_(arrival),
          payloads_(std::move(payloads)),
          fireEv_([this] { fire(); }, name + ".fire"), when_(when)
    {
    }

    void
    startup() override
    {
        schedule(fireEv_, when_);
    }

  private:
    void
    fire()
    {
        for (int v : payloads_) {
            Collector *c = to_;
            sim().postCrossDomain(c->domain(), arrival_,
                                  [c, v] { c->log.push_back(v); },
                                  "emit");
        }
    }

    Collector *to_;
    Tick arrival_;
    std::vector<int> payloads_;
    EventFunctionWrapper fireEv_;
    Tick when_;
};

} // anonymous namespace

TEST(SimDomains, DomainScopeAssignsBuildDomain)
{
    Simulation sim;
    sim.setDomains(3);
    EXPECT_EQ(sim.numDomains(), 3);
    auto *a = sim.create<Collector>("a");
    EXPECT_EQ(a->domain(), 0);
    {
        Simulation::DomainScope scope(sim, 2);
        auto *b = sim.create<Collector>("b");
        EXPECT_EQ(b->domain(), 2);
        {
            Simulation::DomainScope inner(sim, 1);
            EXPECT_EQ(sim.create<Collector>("c")->domain(), 1);
        }
        // Nested scope restores the enclosing domain.
        EXPECT_EQ(sim.create<Collector>("d")->domain(), 2);
    }
    EXPECT_EQ(sim.create<Collector>("e")->domain(), 0);
}

TEST(SimDomains, ObjectsUseTheirDomainQueue)
{
    Simulation sim;
    sim.setDomains(2);
    sim.setLookahead(kLatency);
    auto *a = sim.create<Collector>("a");
    Simulation::DomainScope scope(sim, 1);
    auto *b = sim.create<Collector>("b");
    EXPECT_EQ(&a->eventq(), &sim.eventq(0));
    EXPECT_EQ(&b->eventq(), &sim.eventq(1));
    EXPECT_NE(&a->eventq(), &b->eventq());
}

TEST(SimDomains, SingleDomainStaysOnLegacyPath)
{
    PingRun r = runPingers(1, false);
    EXPECT_EQ(r.windows, 0u); // never entered the windowed scheduler
    EXPECT_GT(r.events, 0u);
}

TEST(SimDomains, PooledBitIdenticalToSerialWindows)
{
    // The determinism bar: thread interleaving can never change any
    // stat. Compare the full dump bitwise at several domain counts.
    for (int d : {2, 3, 6}) {
        PingRun pooled = runPingers(d, false);
        PingRun serial = runPingers(d, true);
        EXPECT_EQ(pooled.dump, serial.dump) << "domains=" << d;
        EXPECT_EQ(pooled.events, serial.events) << "domains=" << d;
        EXPECT_EQ(pooled.finalTick, serial.finalTick) << "domains=" << d;
        EXPECT_GT(pooled.windows, 0u);
    }
}

TEST(SimDomains, CommutativeWorkloadMatchesSingleQueue)
{
    // With order-insensitive receivers the sharded runs must also
    // reproduce the plain serial kernel exactly.
    PingRun ref = runPingers(1, false);
    for (int d : {2, 3, 6}) {
        PingRun sharded = runPingers(d, false);
        EXPECT_EQ(sharded.dump, ref.dump) << "domains=" << d;
        EXPECT_EQ(sharded.events, ref.events) << "domains=" << d;
    }
}

TEST(SimDomains, SlicedRunMatchesUnslicedRun)
{
    // Bounded windowed runs settle every domain clock on the limit, so
    // stitching slices together is invisible to the model.
    PingRun whole = runPingers(4, false);
    PingRun sliced = runPingers(4, false, 6, 200, 5);
    EXPECT_EQ(sliced.dump, whole.dump);
    EXPECT_EQ(sliced.events, whole.events);
}

TEST(SimDomains, BarrierMergesInCanonicalOrder)
{
    // Two emitters in different domains post same-tick messages to one
    // collector; the barrier must order them by (src, seq), not by
    // which window happened to finish first.
    Simulation sim;
    sim.setDomains(3);
    sim.setLookahead(100);
    auto *c = sim.create<Collector>("c");
    {
        Simulation::DomainScope scope(sim, 2);
        sim.create<Emitter>("e2", c, Tick(10), Tick(400),
                            std::vector<int>{20, 21});
    }
    {
        Simulation::DomainScope scope(sim, 1);
        sim.create<Emitter>("e1", c, Tick(10), Tick(400),
                            std::vector<int>{10, 11});
    }
    sim.run();
    EXPECT_EQ(c->log, (std::vector<int>{10, 11, 20, 21}));
}

TEST(SimDomains, RunCountsWindowsAndCrossDomainMessages)
{
    // Every ping crosses a domain boundary from inside a window, so one
    // sharded run adds its windows, and all 6 x 200 pings, to the
    // telemetry counters; the single-queue kernel adds neither.
    telemetry::Counter &windows = telemetry::counter("sim.windows");
    telemetry::Counter &inlined = telemetry::counter("sim.windows_inline");
    telemetry::Counter &messages =
        telemetry::counter("sim.cross_domain_messages");
    for (int d : {1, 4}) {
        const std::uint64_t w0 = windows.value();
        const std::uint64_t i0 = inlined.value();
        const std::uint64_t m0 = messages.value();
        PingRun r = runPingers(d, false);
        EXPECT_EQ(windows.value() - w0, r.windows) << "domains=" << d;
        EXPECT_LE(inlined.value() - i0, r.windows) << "domains=" << d;
        EXPECT_EQ(messages.value() - m0, d == 1 ? 0u : 6u * 200u)
            << "domains=" << d;
    }
}

TEST(SimDomains, WindowsWithOneBusyDomainCountAsInline)
{
    // Domain 0 alone has events at ticks 0 and 1000; both domains have
    // one at 2000. Three windows, of which the first two run one domain.
    telemetry::Counter &inlined = telemetry::counter("sim.windows_inline");
    for (bool serial : {true, false}) {
        Simulation sim;
        sim.setDomains(2);
        sim.setLookahead(100);
        sim.setSerialWindows(serial);
        int fired = 0;
        for (Tick t : {0, 1000, 2000})
            sim.eventq(0).scheduleLambda(t, [&fired] { ++fired; });
        sim.eventq(1).scheduleLambda(2000, [&fired] { ++fired; });
        const std::uint64_t i0 = inlined.value();
        sim.run();
        EXPECT_EQ(fired, 4);
        EXPECT_EQ(sim.windowsRun(), 3u) << "serial=" << serial;
        EXPECT_EQ(inlined.value() - i0, 2u) << "serial=" << serial;
    }
}

TEST(SimDomains, PostOutsideWindowSchedulesDirectly)
{
    Simulation sim;
    sim.setDomains(2);
    sim.setLookahead(100);
    auto *c = sim.create<Collector>("c");
    // No window in flight: arrival below the lookahead is fine.
    sim.postCrossDomain(0, 5, [c] { c->log.push_back(1); }, "direct");
    EXPECT_EQ(sim.executingDomain(), 0);
    sim.run();
    EXPECT_EQ(c->log, std::vector<int>{1});
}

TEST(SimDomainsDeathTest, SetDomainsAfterObjectsPanics)
{
    Simulation sim;
    sim.create<Collector>("c");
    EXPECT_DEATH(sim.setDomains(2), "precede object creation");
}

TEST(SimDomainsDeathTest, MultiDomainRunNeedsLookahead)
{
    Simulation sim;
    sim.setDomains(2);
    sim.setSerialWindows(true);
    auto *c = sim.create<Collector>("c");
    c->eventq().scheduleLambda(10, [] {});
    EXPECT_DEATH(sim.run(), "setLookahead");
}

TEST(SimDomainsDeathTest, LookaheadViolationIsFatal)
{
    Simulation sim;
    sim.setDomains(2);
    sim.setLookahead(1000);
    sim.setSerialWindows(true); // keep the death single-threaded
    auto *c = sim.create<Collector>("c");
    Simulation::DomainScope scope(sim, 1);
    sim.create<Emitter>("e", c, Tick(10), Tick(11),
                        std::vector<int>{1});
    EXPECT_DEATH(sim.run(), "violates the lookahead");
}
