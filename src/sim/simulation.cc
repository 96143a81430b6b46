#include "sim/simulation.hh"

#include <algorithm>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

/** Which simulation/domain window is executing on this thread. The
 *  pair is saved and restored around every window so nested pools
 *  (an outer study parallelizing whole simulations, each windowing
 *  inline) stay correct. */
thread_local const Simulation *tlsSim = nullptr;
thread_local int tlsDomain = 0;

class ExecScope
{
  public:
    ExecScope(const Simulation *sim, int domain)
        : prevSim_(tlsSim), prevDomain_(tlsDomain)
    {
        tlsSim = sim;
        tlsDomain = domain;
    }
    ~ExecScope()
    {
        tlsSim = prevSim_;
        tlsDomain = prevDomain_;
    }

  private:
    const Simulation *prevSim_;
    int prevDomain_;
};

} // anonymous namespace

std::vector<std::unique_ptr<EventQueue>>
Simulation::makeQueues(int n)
{
    std::vector<std::unique_ptr<EventQueue>> queues;
    queues.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        queues.push_back(std::make_unique<EventQueue>());
    return queues;
}

void
Simulation::setDomains(int n)
{
    ENA_ASSERT(n >= 1, "need at least one domain, got ", n);
    ENA_ASSERT(objects_.empty() && !initDone_,
               "setDomains() must precede object creation");
    queues_ = makeQueues(n);
    outboxes_ = std::vector<std::vector<CrossMsg>>(static_cast<size_t>(n));
    msgSeq_.assign(static_cast<size_t>(n), 0);
}

void
Simulation::setLookahead(Tick ticks)
{
    ENA_ASSERT(ticks > 0, "lookahead must be positive");
    lookahead_ = ticks;
}

Simulation::DomainScope::DomainScope(Simulation &sim, int domain)
    : sim_(sim), prev_(sim.buildDomain_)
{
    ENA_ASSERT(domain >= 0 && domain < sim.numDomains(),
               "build domain ", domain, " out of range (",
               sim.numDomains(), " domains)");
    sim_.buildDomain_ = domain;
}

Simulation::DomainScope::~DomainScope()
{
    sim_.buildDomain_ = prev_;
}

int
Simulation::executingDomain() const
{
    return tlsSim == this ? tlsDomain : 0;
}

int
Simulation::postingDomain(int dst_domain) const
{
    ENA_ASSERT(dst_domain >= 0 && dst_domain < numDomains(),
               "post to unknown domain ", dst_domain);
    return executingDomain();
}

InlineFn &
Simulation::bufferMessage(int src, int dst, Tick when, const char *desc)
{
    ENA_ASSERT(when >= windowEnd_,
               "cross-domain post at tick ", when,
               " violates the lookahead window ending at ", windowEnd_,
               " (", desc, ")");
    auto s = static_cast<size_t>(src);
    return outboxes_[s]
        .emplace_back(CrossMsg{when, dst, src, msgSeq_[s]++, desc, {}})
        .fn;
}

Tick
Simulation::curTick() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->curTick());
    return t;
}

void
Simulation::initAll()
{
    if (initDone_)
        return;
    initDone_ = true;
    // init() in creation order, then startup() in creation order; new
    // objects created during init() are picked up by index iteration.
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->init();
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->startup();
}

std::uint64_t
Simulation::run(Tick limit)
{
    ENA_SPAN("sim", "run");
    initAll();
    WindowCounts counts;
    const std::uint64_t windowsBefore = windowsRun_;
    std::uint64_t events = queues_.size() == 1
                               ? queues_[0]->run(limit)
                               : runWindows(limit, counts);

    static telemetry::Counter &processed = telemetry::counter(
        "sim.events_processed",
        "events executed across all cycle-level simulations");
    static telemetry::Counter &windows = telemetry::counter(
        "sim.windows", "PDES windows (barriers) executed");
    static telemetry::Counter &inlined = telemetry::counter(
        "sim.windows_inline",
        "PDES windows with one busy domain, run on the barrier thread");
    static telemetry::Counter &messages = telemetry::counter(
        "sim.cross_domain_messages",
        "messages buffered across PDES domains and merged at barriers");
    processed.add(events);
    windows.add(windowsRun_ - windowsBefore);
    inlined.add(counts.inlined);
    messages.add(counts.messages);
    if (telemetry::metricsEnabled())
        publishStats();
    return events;
}

std::uint64_t
Simulation::runWindows(Tick limit, WindowCounts &counts)
{
    ENA_ASSERT(lookahead_ > 0,
               "multi-domain simulation needs setLookahead() before run");
    std::vector<std::uint64_t> windowEvents(queues_.size(), 0);
    std::uint64_t events = 0;

    while (true) {
        // Earliest pending event anywhere; every barrier has already
        // delivered its messages, so the queues hold the whole future.
        Tick start = maxTick;
        for (const auto &q : queues_)
            start = std::min(start, q->nextTickOr(maxTick));
        if (start == maxTick || start > limit)
            break;

        // Window [start, end): bounded by the lookahead and the limit.
        Tick end = start > maxTick - lookahead_ ? maxTick
                                                : start + lookahead_;
        if (limit != maxTick)
            end = std::min(end, limit + 1);
        windowEnd_ = end;

        // Only domains with an event before the window end have work;
        // the others keep their clocks until a later window or the
        // final settle below.
        active_.clear();
        for (std::size_t d = 0; d < queues_.size(); ++d) {
            if (queues_[d]->nextTickOr(maxTick) < end)
                active_.push_back(d);
        }
        auto runDomain = [&](std::size_t i) {
            const std::size_t d = active_[i];
            ExecScope scope(this, static_cast<int>(d));
            windowEvents[i] = queues_[d]->run(end - 1);
        };
        // A lone busy domain needs no handoff: parallelFor(1, ...) runs
        // it on this thread.
        if (serialWindows_) {
            for (std::size_t i = 0; i < active_.size(); ++i)
                runDomain(i);
        } else {
            ThreadPool::global().parallelFor(active_.size(), runDomain);
        }
        counts.inlined += active_.size() == 1;
        windowEnd_ = 0;
        ++windowsRun_;
        for (std::size_t i = 0; i < active_.size(); ++i)
            events += windowEvents[i];

        counts.messages += deliverOutboxes();
    }

    // The whole bounded window was simulated: every domain clock lands
    // exactly on the limit (the serial kernel's run(limit) contract,
    // extended across domains). Unbounded runs settle all domains on
    // the global last-event tick so no domain reports stale time.
    Tick settle = limit != maxTick ? limit : curTick();
    for (auto &q : queues_)
        q->advanceTo(settle);
    return events;
}

std::uint64_t
Simulation::deliverOutboxes()
{
    merged_.clear();
    for (auto &outbox : outboxes_) {
        for (CrossMsg &m : outbox)
            merged_.push_back(&m);
    }
    // Canonical total order: arrival tick, then target domain, then
    // (source domain, per-source sequence). Scheduling in this order
    // fixes the same-tick FIFO position of every message independent
    // of thread interleaving — the determinism bar.
    std::sort(merged_.begin(), merged_.end(),
              [](const CrossMsg *a, const CrossMsg *b) {
                  if (a->when != b->when)
                      return a->when < b->when;
                  if (a->dst != b->dst)
                      return a->dst < b->dst;
                  if (a->src != b->src)
                      return a->src < b->src;
                  return a->seq < b->seq;
              });
    for (CrossMsg *m : merged_)
        eventq(m->dst).scheduleLambda(m->when, std::move(m->fn), m->desc);
    for (auto &outbox : outboxes_)
        outbox.clear();
    return merged_.size();
}

void
Simulation::publishStats() const
{
    stats_.forEach([](const StatBase &s) {
        if (const auto *sc = dynamic_cast<const StatScalar *>(&s)) {
            telemetry::gauge("sim." + sc->name(), sc->desc())
                .set(sc->value());
        } else if (const auto *f =
                       dynamic_cast<const StatFormula *>(&s)) {
            telemetry::gauge("sim." + f->name(), f->desc())
                .set(f->value());
        } else if (const auto *d =
                       dynamic_cast<const StatDistribution *>(&s)) {
            telemetry::gauge("sim." + d->name() + ".samples", d->desc())
                .set(static_cast<double>(d->samples()));
            telemetry::gauge("sim." + d->name() + ".mean", d->desc())
                .set(d->mean());
        }
    });
}

} // namespace ena
