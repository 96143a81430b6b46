#include "sim/event.hh"

#include "util/logging.hh"

namespace ena {

void
EventQueue::schedule(Event *ev, Tick when)
{
    ENA_ASSERT(ev, "scheduling null event");
    ENA_ASSERT(!ev->scheduled(), "event '", ev->description(),
               "' already scheduled");
    ENA_ASSERT(when >= curTick_, "scheduling event '", ev->description(),
               "' in the past (", when, " < ", curTick_, ")");
    ev->when_ = when;
    ev->heapPos_ = heap_.size();
    heap_.push_back(Entry{when, nextSeq_++, ev});
    sift(ev->heapPos_);
}

void
EventQueue::deschedule(Event *ev)
{
    ENA_ASSERT(ev && ev->scheduled(), "descheduling unscheduled event");
    const std::size_t pos = ev->heapPos_;
    ev->heapPos_ = Event::notQueued;
    heap_[pos] = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size())
        sift(pos);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (!ev->scheduled())
        return schedule(ev, when);
    ENA_ASSERT(when >= curTick_, "rescheduling event '", ev->description(),
               "' in the past (", when, " < ", curTick_, ")");
    // A fresh sequence number: the order of a deschedule plus a schedule.
    ev->when_ = when;
    heap_[ev->heapPos_] = Entry{when, nextSeq_++, ev};
    sift(ev->heapPos_);
}

void
EventQueue::sift(std::size_t pos)
{
    const Entry e = heap_[pos];
    auto move_to = [this](std::size_t from, std::size_t to) {
        heap_[to] = heap_[from];
        heap_[to].event->heapPos_ = to;
    };
    for (std::size_t up; pos > 0 && e.before(heap_[up = (pos - 1) / 2]);
         pos = up)
        move_to(up, pos);
    for (std::size_t down; (down = 2 * pos + 1) < heap_.size(); pos = down) {
        if (down + 1 < heap_.size() && heap_[down + 1].before(heap_[down]))
            ++down;
        if (!heap_[down].before(e))
            break;
        move_to(down, pos);
    }
    heap_[pos] = e;
    e.event->heapPos_ = pos;
}

Tick
EventQueue::nextTick() const
{
    if (heap_.empty())
        ENA_FATAL("nextTick() on empty event queue");
    return heap_.front().when;
}

bool
EventQueue::serviceOne()
{
    if (heap_.empty())
        return false;

    Event *ev = heap_.front().event;
    ENA_ASSERT(ev->when_ >= curTick_, "event queue went backwards");
    curTick_ = ev->when_;
    deschedule(ev);
    ++processed_;
    ev->process();
    // A fired slot returns to the pool unless its callable rescheduled it.
    if (ev->pooled_ && !ev->scheduled()) {
        auto *slot = static_cast<LambdaEvent *>(ev);
        slot->fn.reset();
        free_.push_back(slot);
    }
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
        serviceOne();
        ++n;
    }
    // A bounded run simulates the whole window [entry tick, limit]:
    // even when the queue drains early or the next event lies past the
    // limit, time advances to the window boundary so that repeated
    // run(limit) segments (the PDES barrier pattern) observe monotone,
    // non-stale time. An unbounded run keeps the last event's tick.
    if (limit != maxTick)
        advanceTo(limit);
    return n;
}

} // namespace ena
