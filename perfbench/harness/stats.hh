/**
 * @file
 * Order statistics and stream properties the benchmark reports:
 * medians, quartiles (the same "exclusive" method as Python's
 * statistics.quantiles, so in-run and cross-run spreads agree),
 * nearest-rank percentiles with the "highest percentile that still has
 * ten samples beyond it" rule, the repeat share of an input stream,
 * and a 64-bit FNV-1a digest of result bits.
 */

#ifndef PERFBENCH_HARNESS_STATS_HH
#define PERFBENCH_HARNESS_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p xs (mean of the middle pair for even sizes); NaN when
 *  empty. */
double median(std::vector<double> xs);

/**
 * First, second and third quartile exactly as Python's
 * statistics.quantiles(xs, n=4) computes them (method "exclusive");
 * needs at least two values, otherwise every entry is NaN.
 */
std::array<double, 3> quartiles(std::vector<double> xs);

/** Interquartile range as a share of the median (0 for constant
 *  input, NaN when the median is 0 or fewer than two values). */
double iqrShare(const std::vector<double> &xs);

/**
 * Percentiles are expressed in parts per 100000 so the rank
 * arithmetic is exact: 99000 is p99, 99900 is p99.9.
 */
constexpr std::int64_t kPercentScale = 100000;

/** Nearest-rank percentile @p p (parts per 100000) of @p xs; NaN when
 *  empty. */
double percentile(std::vector<double> xs, std::int64_t p);

/** Samples strictly above the nearest-rank percentile @p p of @p n. */
std::int64_t samplesBeyond(std::int64_t n, std::int64_t p);

/**
 * The highest of p50, p90, p99, p99.9 and p99.99 that has at least
 * ten samples beyond it in a sample of size @p n, in parts per 100000;
 * 0 when even p50 has fewer.
 */
std::int64_t highestSupportedPercentile(std::int64_t n);

/** Share of stream items whose key already appeared earlier in the
 *  stream (0 for an empty stream). */
double repeatShare(const std::vector<std::uint64_t> &keys);

/** The exact bit pattern of @p v, for bit-identity checks. */
std::uint64_t bitsOf(double v);

/** Incremental 64-bit FNV-1a digest over exact value bits. */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t n);
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s);

    std::uint64_t value() const { return h_; }

    /** Low 48 bits: exactly representable in a JSON number. */
    double
    reportable() const
    {
        return static_cast<double>(h_ & ((std::uint64_t{1} << 48) - 1));
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** 64-bit FNV-1a of a string (keys for repeat-share counting). */
std::uint64_t hashString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_STATS_HH
