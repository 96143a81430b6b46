#include "harness/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <ostream>
#include <thread>

namespace perfbench {

namespace {

/** Innermost open span on this thread (per tracer run; one tracer is
 *  active at a time). */
thread_local std::int64_t tlsCurrent = -1;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // anonymous namespace

double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

Tracer::Span::Span(Tracer *t, const char *name, std::uint64_t request_id)
{
    if (!t)
        return;
    tracer_ = t;
    savedParent_ = tlsCurrent;
    index_ = t->open(name, request_id, tlsCurrent);
    tlsCurrent = index_;
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->close(index_);
    tlsCurrent = savedParent_;
}

std::int64_t
Tracer::open(const char *name, std::uint64_t request_id,
             std::int64_t parent)
{
    const double start = nowSeconds() * 1e6;
    const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find(threadIds_.begin(), threadIds_.end(), tid);
    if (it == threadIds_.end())
        it = threadIds_.insert(threadIds_.end(), tid);
    SpanRecord r;
    r.name = name;
    r.startUs = start;
    r.endUs = start;
    r.parent = parent;
    r.requestId = request_id;
    r.thread = static_cast<int>(it - threadIds_.begin());
    spans_.push_back(std::move(r));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t index)
{
    const double end = nowSeconds() * 1e6;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<std::size_t>(index)].endUs = end;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::vector<double>
selfTimesUs(const std::vector<SpanRecord> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endUs - spans[i].startUs;
    // Children open and close inside their parent on the parent's
    // thread, so their intervals are disjoint sub-intervals of it.
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endUs - s.startUs;
    }
    return self;
}

std::vector<LayerTime>
Tracer::layerTimes() const
{
    const std::vector<SpanRecord> all = spans();
    const std::vector<double> self = selfTimesUs(all);
    std::map<std::string, LayerTime> by_name;
    for (std::size_t i = 0; i < all.size(); ++i) {
        LayerTime &lt = by_name[all[i].name];
        lt.name = all[i].name;
        ++lt.count;
        lt.totalUs += all[i].endUs - all[i].startUs;
        lt.selfUs += self[i];
    }
    std::vector<LayerTime> out;
    for (auto &kv : by_name)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfUs > b.selfUs;
              });
    return out;
}

double
Tracer::selfUs(const std::string &prefix) const
{
    double sum = 0.0;
    for (const LayerTime &lt : layerTimes()) {
        if (lt.name.compare(0, prefix.size(), prefix) == 0)
            sum += lt.selfUs;
    }
    return sum;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    const std::vector<SpanRecord> all = spans();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld",
                      s.thread, s.startUs, s.endUs - s.startUs, i,
                      static_cast<long long>(s.parent));
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\"perfbench\"," << buf;
        if (s.requestId)
            os << ",\"request\":" << s.requestId;
        os << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
