#include "harness/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

} // anonymous namespace

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return kNaN;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

std::array<double, 3>
quartiles(std::vector<double> xs)
{
    std::array<double, 3> q{kNaN, kNaN, kNaN};
    const std::int64_t ld = static_cast<std::int64_t>(xs.size());
    if (ld < 2)
        return q;
    std::sort(xs.begin(), xs.end());
    // CPython's statistics.quantiles, method="exclusive", n=4.
    const std::int64_t n = 4;
    const std::int64_t m = ld + 1;
    for (std::int64_t i = 1; i < n; ++i) {
        std::int64_t j = i * m / n;
        j = std::clamp<std::int64_t>(j, 1, ld - 1);
        const std::int64_t delta = i * m - j * n;
        q[static_cast<std::size_t>(i - 1)] =
            (xs[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(n - delta) +
             xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            static_cast<double>(n);
    }
    return q;
}

double
iqrShare(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return kNaN;
    const std::array<double, 3> q = quartiles(xs);
    const double med = median(xs);
    if (q[2] == q[0])
        return 0.0;
    return med == 0.0 ? kNaN : (q[2] - q[0]) / std::fabs(med);
}

namespace {

/** 1-based nearest rank of percentile @p p in a sample of @p n. */
std::int64_t
nearestRank(std::int64_t n, std::int64_t p)
{
    const std::int64_t rank = (p * n + kPercentScale - 1) / kPercentScale;
    return std::clamp<std::int64_t>(rank, 1, n);
}

} // anonymous namespace

double
percentile(std::vector<double> xs, std::int64_t p)
{
    if (xs.empty())
        return kNaN;
    const std::int64_t n = static_cast<std::int64_t>(xs.size());
    const std::size_t idx =
        static_cast<std::size_t>(nearestRank(n, p) - 1);
    std::nth_element(xs.begin(), xs.begin() + static_cast<long>(idx),
                     xs.end());
    return xs[idx];
}

std::int64_t
samplesBeyond(std::int64_t n, std::int64_t p)
{
    return n <= 0 ? 0 : n - nearestRank(n, p);
}

std::int64_t
highestSupportedPercentile(std::int64_t n)
{
    constexpr std::int64_t kMinBeyond = 10;
    static constexpr std::int64_t ladder[] = {99990, 99900, 99000, 90000,
                                              50000};
    for (std::int64_t p : ladder) {
        if (samplesBeyond(n, p) >= kMinBeyond)
            return p;
    }
    return 0;
}

double
repeatShare(const std::vector<std::uint64_t> &keys)
{
    if (keys.empty())
        return 0.0;
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(keys.size());
    std::size_t repeats = 0;
    for (std::uint64_t k : keys) {
        if (!seen.insert(k).second)
            ++repeats;
    }
    return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

void
Digest::addBytes(const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

void
Digest::add(double v)
{
    add(bitsOf(v));
}

void
Digest::add(std::uint64_t v)
{
    addBytes(&v, sizeof v);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    addBytes(s.data(), s.size());
}

std::uint64_t
hashString(const std::string &s)
{
    Digest d;
    d.addBytes(s.data(), s.size());
    return d.value();
}

} // namespace perfbench
