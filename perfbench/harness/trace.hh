/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. Spans are
 * recorded only from the benchmark's own files, around calls into the
 * model's layers: each holds a name, start, end, the span that was
 * open on the same thread when it began (its parent), and an optional
 * request id shared by every span of one server request. Nothing is
 * written until the run ends: then the spans become a Chrome trace
 * (chrome://tracing, Perfetto) and a per-name self-time table.
 *
 * Untraced runs pass a null Tracer; Span construction is then one
 * branch, so they pay (almost) nothing.
 */

#ifndef PERFBENCH_HARNESS_TRACE_HH
#define PERFBENCH_HARNESS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since an arbitrary process epoch. */
double nowSeconds();

struct SpanRecord
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t parent = -1;      ///< index into the span list, -1 = root
    std::uint64_t requestId = 0;   ///< 0 = not part of a server request
    int thread = 0;                ///< small per-run thread number
};

/** Aggregate of every span sharing one name. */
struct LayerTime
{
    std::string name;
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;   ///< total minus time covered by child spans
};

class Tracer
{
  public:
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span; a no-op when the tracer is null. */
    class Span
    {
      public:
        Span(Tracer *t, const char *name, std::uint64_t request_id = 0);
        ~Span();

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_ = nullptr;
        std::int64_t index_ = -1;
        std::int64_t savedParent_ = -1;
    };

    /** Snapshot of every finished span, in start order per thread. */
    std::vector<SpanRecord> spans() const;

    /** Per-name count, total and self time, sorted by self time. */
    std::vector<LayerTime> layerTimes() const;

    /** Self time of every span whose name starts with @p prefix, us. */
    double selfUs(const std::string &prefix) const;

    /** Chrome trace_event JSON of every span. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::int64_t open(const char *name, std::uint64_t request_id,
                      std::int64_t parent);
    void close(std::int64_t index);

    mutable std::mutex mu_;   ///< guards spans_ and threadIds_
    std::vector<SpanRecord> spans_;
    std::vector<std::uint64_t> threadIds_;
};

/** Self time of each span: its duration minus its children's. */
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_TRACE_HH
