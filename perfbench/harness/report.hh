/**
 * @file
 * The run's result: end-to-end or per-layer metrics with units, the
 * attempted/failed operation counts, and the final one-line JSON
 * object the benchmark prints last on stdout:
 *
 *   {"correct": true, "attempted": 12, "failed": 0,
 *    "metrics": {"op_ms": {"value": 12810.4, "unit": "ms"}, ...}}
 *
 * Failed output checks count as failed operations; `correct` is true
 * only when no operation failed.
 */

#ifndef PERFBENCH_HARNESS_REPORT_HH
#define PERFBENCH_HARNESS_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    /** Record @p n operations attempted, of which @p failed failed. */
    void
    ops(std::uint64_t n, std::uint64_t failed = 0)
    {
        attempted_ += n;
        failed_ += failed;
    }

    /** Record one failed output check (an extra failed operation),
     *  with a diagnostic printed to stderr. */
    void fail(const std::string &what);

    /** Add or replace a metric. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Human-readable metric table (written before the JSON line). */
    void printTable(std::ostream &os) const;

    /** The final JSON line (no trailing newline). Non-finite values
     *  make the run incorrect and are reported as 0. */
    std::string jsonLine() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_REPORT_HH
