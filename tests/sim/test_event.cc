/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, rescheduling,
 * descheduling, lambda events, run limits, a differential check against
 * a reference ordered-set queue, and the lambda pool's reuse, callable
 * lifetimes and allocation-free steady state.
 */

#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hh"
#include "util/rng.hh"

using namespace ena;

namespace {

/** Global operator new calls in this binary (relaxed: other tests in
 *  it run thread pools). */
std::atomic<std::uint64_t> newCalls{0};

} // anonymous namespace

// The replacements pair malloc with free; GCC's mismatch heuristic
// cannot see that once it inlines them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // anonymous namespace

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&b, 20);
    q.schedule(&a, 10);
    q.schedule(&c, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&a, 5);
    q.schedule(&b, 5);
    q.schedule(&c, 5);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.reschedule(&a, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        q.scheduleLambda(static_cast<Tick>(i), [&fired] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue q;
    int fired = 0;
    q.scheduleLambda(10, [&fired] { ++fired; });
    q.scheduleLambda(100, [&fired] { ++fired; });
    std::uint64_t n = q.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleLambda(q.curTick() + 10, chain);
    };
    q.scheduleLambda(0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, SelfReschedulingEvent)
{
    EventQueue q;
    struct Periodic : Event
    {
        EventQueue &q;
        int count = 0;
        explicit Periodic(EventQueue &queue) : q(queue) {}
        void
        process() override
        {
            if (++count < 3)
                q.schedule(this, q.curTick() + 100);
        }
    } ev(q);
    q.schedule(&ev, 0);
    q.run();
    EXPECT_EQ(ev.count, 3);
    EXPECT_EQ(q.curTick(), 200u);
}

TEST(EventQueue, NextTickAndEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.scheduleLambda(42, [] {});
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.nextTick(), 42u);
}

TEST(EventQueue, EventsProcessedCounter)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.scheduleLambda(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.eventsProcessed(), 7u);
}

TEST(EventQueue, PendingLambdasFreedOnDestruction)
{
    // Covered by ASan/valgrind runs; functionally just must not crash.
    auto *q = new EventQueue;
    q->scheduleLambda(1000, [] {});
    delete q;
    SUCCEED();
}

TEST(EventQueue, DescheduledLambdaFreedOnDestruction)
{
    // Regression: a pooled lambda that was descheduled never fires, so
    // only the queue destructor can destroy its callable. Leak checked
    // under ASan.
    auto *q = new EventQueue;
    Event *ev = q->scheduleLambda(1000, [] {});
    q->deschedule(ev);
    delete q;
    SUCCEED();
}

TEST(EventQueue, RescheduledLambdaFreedOnceOnDestruction)
{
    // A rescheduled lambda moves its one heap entry; the destructor must
    // destroy its callable exactly once (double-free checked under
    // ASan).
    auto *q = new EventQueue;
    Event *ev = q->scheduleLambda(10, [] {});
    q->reschedule(ev, 30);
    q->reschedule(ev, 50);
    delete q;
    SUCCEED();
}

TEST(EventQueue, DescheduledLambdaCanBeRescheduled)
{
    EventQueue q;
    int fired = 0;
    Event *ev = q.scheduleLambda(10, [&] { ++fired; });
    q.deschedule(ev);
    q.schedule(ev, 20);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 20u);
}

TEST(EventQueue, BoundedRunAdvancesToLimit)
{
    // run(limit) simulates the whole window [0, limit]: the clock must
    // land on the limit even when the last event fires earlier or the
    // queue is empty, so windowed callers can stitch runs together.
    EventQueue q;
    int fired = 0;
    q.scheduleLambda(10, [&] { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 50u);
    q.run(80); // empty window
    EXPECT_EQ(q.curTick(), 80u);
    q.scheduleLambda(90, [&] { ++fired; });
    q.run(90); // event exactly on the limit is inside the window
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.curTick(), 90u);
}

TEST(EventQueue, UnboundedRunStaysAtLastEvent)
{
    EventQueue q;
    q.scheduleLambda(25, [] {});
    q.run();
    EXPECT_EQ(q.curTick(), 25u);
}

TEST(EventQueue, SegmentedRunMatchesSingleRun)
{
    // Executing [0,90] as three windows must be indistinguishable from
    // one bounded run: same event order, same clock, same count. The
    // self-rescheduling closure lives in a caller-owned slot (capturing
    // an owning handle to itself would leak a reference cycle).
    auto build = [](EventQueue &q, std::vector<Tick> &log,
                    std::function<void()> &chain) {
        chain = [&q, &log, &chain] {
            log.push_back(q.curTick());
            if (q.curTick() < 84)
                q.scheduleLambda(q.curTick() + 7, chain);
        };
        q.scheduleLambda(0, chain);
    };

    EventQueue segmented;
    std::vector<Tick> seg_log;
    std::function<void()> seg_chain;
    build(segmented, seg_log, seg_chain);
    segmented.run(30);
    EXPECT_EQ(segmented.curTick(), 30u);
    segmented.run(60);
    segmented.run(90);

    EventQueue single;
    std::vector<Tick> single_log;
    std::function<void()> single_chain;
    build(single, single_log, single_chain);
    single.run(90);

    EXPECT_EQ(seg_log, single_log);
    EXPECT_EQ(segmented.curTick(), single.curTick());
    EXPECT_EQ(segmented.eventsProcessed(), single.eventsProcessed());
}

TEST(EventQueue, NextTickOrFallback)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTickOr(123), 123u);
    q.scheduleLambda(10, [] {});
    EXPECT_EQ(q.nextTickOr(123), 10u);
}

TEST(EventQueue, NextTickSkimsDescheduledTop)
{
    EventQueue q;
    EventFunctionWrapper a([] {});
    EventFunctionWrapper b([] {});
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_EQ(q.nextTick(), 20u);
    EXPECT_EQ(q.nextTickOr(999), 20u);
    q.deschedule(&b);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTickOr(999), 999u);
}

TEST(EventQueue, AdvanceToIsForwardOnly)
{
    EventQueue q;
    q.scheduleLambda(10, [] {});
    q.run();
    q.advanceTo(40);
    EXPECT_EQ(q.curTick(), 40u);
    q.advanceTo(20); // never moves backwards
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue q;
    q.scheduleLambda(100, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleLambda(50, [] {}), "in the past");
}

TEST(EventQueueDeathTest, DoubleSchedulePanics)
{
    EventQueue q;
    EventFunctionWrapper ev([] {});
    q.schedule(&ev, 10);
    EXPECT_DEATH(q.schedule(&ev, 20), "already scheduled");
    q.deschedule(&ev);
}

TEST(EventQueueDeathTest, DescheduleUnscheduledPanics)
{
    EventQueue q;
    EventFunctionWrapper ev([] {});
    EXPECT_DEATH(q.deschedule(&ev), "unscheduled");
}

namespace {

/** Callable of about @p Bytes whose destructor counts, once, the
 *  destruction of the copy that owns the count (moved-from copies do
 *  not count). */
template <std::size_t Bytes>
struct CountedCapture
{
    int *destroyed;
    int *calls;
    std::array<char, Bytes - 2 * sizeof(int *)> pad{};

    CountedCapture(int *d, int *c) : destroyed(d), calls(c) {}
    CountedCapture(CountedCapture &&o) noexcept
        : destroyed(std::exchange(o.destroyed, nullptr)), calls(o.calls),
          pad(o.pad)
    {}
    ~CountedCapture()
    {
        if (destroyed)
            ++*destroyed;
    }
    void operator()() const { ++*calls; }
};

/** Fire, deschedule, or leave pending at queue death one capture of
 *  @p Bytes; its callable must be destroyed exactly once each way. */
template <std::size_t Bytes>
void
checkCaptureDestroyedOnce()
{
    for (int fate = 0; fate < 3; ++fate) {
        SCOPED_TRACE(testing::Message() << Bytes << " bytes, fate " << fate);
        int destroyed = 0;
        int calls = 0;
        auto q = std::make_unique<EventQueue>();
        Event *ev = q->scheduleLambda(
            10, CountedCapture<Bytes>(&destroyed, &calls), "counted");
        EXPECT_EQ(destroyed, 0);
        if (fate == 0) {
            q->run();
            EXPECT_EQ(calls, 1);
            EXPECT_EQ(destroyed, 1); // destroyed when it fired
        } else if (fate == 1) {
            q->deschedule(ev);
        }
        q.reset();
        EXPECT_EQ(destroyed, 1);
        EXPECT_EQ(calls, fate == 0 ? 1 : 0);
    }
}

} // anonymous namespace

TEST(EventQueue, MatchesReferenceOrderedSet)
{
    // Differential check: a seeded mix of schedule, deschedule and
    // reschedule on member events and pooled lambdas, with many
    // same-tick collisions, fires in exactly the order of an ordered
    // set keyed by (tick, scheduling sequence).
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        EventQueue q;
        std::vector<int> log;
        std::vector<std::unique_ptr<RecordingEvent>> members;
        for (int i = 0; i < 8; ++i)
            members.push_back(std::make_unique<RecordingEvent>(log, i));
        // id -> event; lambdas (ids >= 100) leave once fired, since
        // their slot is then reused.
        std::map<int, Event *> events;
        for (int i = 0; i < 8; ++i)
            events[i] = members[static_cast<std::size_t>(i)].get();
        using Key = std::tuple<Tick, std::uint64_t, int>;
        std::set<Key> model;
        std::map<int, Key> keyOf;
        std::uint64_t seq = 0;
        int nextLambda = 100;

        auto modelPut = [&](int id, Tick when) {
            if (keyOf.count(id))
                model.erase(keyOf[id]);
            keyOf[id] = Key{when, seq++, id};
            model.insert(keyOf[id]);
        };
        auto pick = [&]() {
            auto it = events.begin();
            std::advance(it, static_cast<long>(rng.below(events.size())));
            return *it;
        };

        for (int step = 0; step < 3000; ++step) {
            const Tick when = q.curTick() + rng.below(4);
            const std::uint64_t op = rng.below(10);
            if (op < 3) {
                const int id = nextLambda++;
                events[id] = q.scheduleLambda(
                    when, [&log, id] { log.push_back(id); }, "diff");
                modelPut(id, when);
            } else if (op < 5) {
                auto [id, ev] = pick();
                if (ev->scheduled()) {
                    q.deschedule(ev);
                    model.erase(keyOf[id]);
                    keyOf.erase(id);
                }
            } else if (op < 7) {
                auto [id, ev] = pick();
                q.reschedule(ev, when);
                modelPut(id, when);
            } else if (!model.empty()) {
                ASSERT_TRUE(q.serviceOne());
                const auto [t, s, id] = *model.begin();
                model.erase(model.begin());
                keyOf.erase(id);
                ASSERT_EQ(log.back(), id);
                ASSERT_EQ(q.curTick(), t);
                if (id >= 100)
                    events.erase(id);
            }
            ASSERT_EQ(q.empty(), model.empty());
            ASSERT_EQ(q.nextTickOr(maxTick),
                      model.empty() ? maxTick : std::get<0>(*model.begin()));
        }
        while (!model.empty()) {
            ASSERT_TRUE(q.serviceOne());
            ASSERT_EQ(log.back(), std::get<2>(*model.begin()));
            ASSERT_EQ(q.curTick(), std::get<0>(*model.begin()));
            model.erase(model.begin());
        }
        EXPECT_FALSE(q.serviceOne());
    }
}

TEST(EventQueue, PooledSlotsAreReused)
{
    // 1e5 fire-and-forget lambdas with a random 0-40 in flight: the
    // pool grows only to the peak number alive at once.
    EventQueue q;
    std::uint64_t fired = 0;
    std::size_t live = 0;
    std::size_t peak = 0;
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        q.scheduleLambda(q.curTick() + rng.below(50), [&] { ++fired; });
        peak = std::max(peak, ++live);
        for (std::size_t keep = rng.below(41); live > keep; --live)
            q.serviceOne();
    }
    q.run();
    EXPECT_EQ(fired, 100000u);
    EXPECT_LE(q.lambdaSlots(), peak);
    EXPECT_LE(peak, 41u);
}

TEST(EventQueue, LambdaCaptureDestroyedExactlyOnce)
{
    checkCaptureDestroyedOnce<48>();  // held in place
    checkCaptureDestroyedOnce<160>(); // too large: heap fallback
}

TEST(EventQueue, SteadyStateScheduleLambdaDoesNotAllocate)
{
    // Packet-sized captures, as the NoC's deliveries post, in rounds of
    // the same size: once the pool and heap have grown, a round costs
    // no operator new at all.
    EventQueue q;
    struct Payload
    {
        std::uint64_t words[6];
    };
    std::uint64_t sum = 0;
    auto round = [&] {
        for (std::uint64_t i = 0; i < 256; ++i) {
            Payload p{{i, i, i, i, i, i}};
            std::uint64_t *out = &sum;
            q.scheduleLambda(q.curTick() + i % 17,
                             [out, p] { *out += p.words[5]; });
        }
        q.run();
    };
    round();
    const std::uint64_t before = newCalls.load();
    for (int r = 0; r < 10; ++r)
        round();
    EXPECT_EQ(newCalls.load() - before, 0u);
    EXPECT_EQ(sum, 11u * (255u * 256u / 2));
}
