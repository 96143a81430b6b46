/**
 * @file
 * Discrete-event kernel for the cycle-level ENA simulator.
 *
 * Events are gem5-style: an abstract Event with a process() method, an
 * EventFunctionWrapper for member callbacks, and an EventQueue ordered by
 * (tick, insertion sequence). One Tick is one picosecond (util/units).
 *
 * Ownership: callers own Event objects (usually as members of SimObjects)
 * and they must outlive their scheduled occurrences. scheduleLambda()
 * builds a fire-and-forget callable in place in a queue-owned slot taken
 * from a free list, so a steady state allocates nothing per event. The
 * queue is an indexed heap: each scheduled event knows its entry, so
 * deschedule() and reschedule() remove or move it in place.
 */

#ifndef ENA_SIM_EVENT_HH
#define ENA_SIM_EVENT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "util/inline_fn.hh"
#include "util/units.hh"

namespace ena {

/** Sentinel "no limit" tick for bounded runs. */
constexpr Tick maxTick = ~Tick(0);

/** An occurrence scheduled at a future tick. */
class Event
{
  public:
    Event() = default;
    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the event queue when the event's tick is reached. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual std::string description() const { return "generic event"; }

    /** True while this event sits in a queue awaiting execution. */
    bool scheduled() const { return heapPos_ != notQueued; }

    /** Tick at which the event will (or did last) fire. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;
    static constexpr std::size_t notQueued = ~std::size_t(0);

    Tick when_ = 0;
    /** Index of this event's entry in its queue's heap. */
    std::size_t heapPos_ = notQueued;
    /** A queue-owned scheduleLambda() slot. */
    bool pooled_ = false;
};

/** Event that runs a captured callable. */
class EventFunctionWrapper : public Event
{
  public:
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  std::string desc = "lambda event")
        : fn_(std::move(fn)), desc_(std::move(desc))
    {}

    void process() override { fn_(); }
    std::string description() const override { return desc_; }

  private:
    std::function<void()> fn_;
    std::string desc_;
};

/**
 * A min-ordered queue of events. Events firing at the same tick execute
 * in scheduling order (FIFO), which keeps simulations deterministic.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /** Move a scheduled (or idle) event to a new tick; it fires after
     *  every event already scheduled at that tick. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callable in a pooled queue-owned event. The
     * returned pointer stays valid until the event fires (or the queue
     * dies) and may be passed to deschedule()/reschedule(); callers
     * normally ignore it. @p desc must outlive the event (a literal).
     * A descheduled slot keeps its callable, and whatever that
     * captures, until it is scheduled again and fires or the queue
     * dies.
     */
    template <typename F>
    Event *
    scheduleLambda(Tick when, F &&fn, const char *desc = "lambda event")
    {
        if (free_.empty())
            free_.push_back(&slots_.emplace_back());
        LambdaEvent *slot = free_.back();
        slot->fn.emplace(std::forward<F>(fn));
        slot->desc = desc;
        free_.pop_back();
        schedule(slot, when);
        return slot;
    }

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the next live event; fatal() when empty. */
    Tick nextTick() const;

    /** Tick of the next live event, or @p fallback when empty. */
    Tick
    nextTickOr(Tick fallback) const
    {
        return heap_.empty() ? fallback : heap_.front().when;
    }

    /** Move time forward to @p when with no event processing (never
     *  backwards); used by windowed multi-queue execution. */
    void advanceTo(Tick when) { curTick_ = std::max(curTick_, when); }

    /** Execute the single next event; returns false when queue empty. */
    bool serviceOne();

    /**
     * Run until the queue drains or simulated time would pass @p limit.
     * Returns the number of events processed. A bounded run leaves
     * curTick() == limit (the whole window was simulated even if no
     * event occupied its tail); an unbounded run leaves curTick() at
     * the last executed event.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** scheduleLambda() slots ever built: the peak number of pooled
     *  events alive at once (a fired slot is reused). */
    std::size_t lambdaSlots() const { return slots_.size(); }

  private:
    struct LambdaEvent final : Event
    {
        LambdaEvent() { pooled_ = true; }
        void process() override { fn(); }
        std::string description() const override { return desc; }

        InlineFn fn;
        const char *desc = nullptr;
    };

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;

        bool
        before(const Entry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Restore heap order around the entry at @p pos. */
    void sift(std::size_t pos);

    std::vector<Entry> heap_;
    /** Every pooled slot (a deque never moves them). Destroying it
     *  destroys each pending or descheduled callable exactly once. */
    std::deque<LambdaEvent> slots_;
    std::vector<LambdaEvent *> free_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace ena

#endif // ENA_SIM_EVENT_HH
