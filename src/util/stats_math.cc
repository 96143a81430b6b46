#include "util/stats_math.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ena {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        ENA_FATAL("mean of empty vector");
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        ENA_FATAL("geomean of empty vector");
    double s = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            ENA_FATAL("geomean requires positive values, got ", x);
        s += std::log(x);
    }
    return std::exp(s / static_cast<double>(xs.size()));
}

double
stdev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        ENA_FATAL("percentile of empty vector");
    if (p < 0.0 || p > 100.0)
        ENA_FATAL("percentile needs p in [0, 100], got ", p);
    std::sort(xs.begin(), xs.end());
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    if (lo + 1 >= xs.size())
        return xs.back();
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

std::vector<double>
linspace(double lo, double hi, size_t n)
{
    ENA_ASSERT(n >= 2, "linspace needs n >= 2");
    std::vector<double> out(n);
    double step = (hi - lo) / static_cast<double>(n - 1);
    for (size_t i = 0; i < n; ++i)
        out[i] = lo + step * static_cast<double>(i);
    out.back() = hi;
    return out;
}

Expected<std::vector<double>>
trySweepAxisValues(double from, double to, double step)
{
    constexpr std::size_t maxSweepPoints = 1000000;
    if (!(step > 0.0) || !std::isfinite(from) || !std::isfinite(to) ||
        to < from)
        return Status::outOfRange("bad sweep range [", from, ", ", to,
                                  "] step ", step);
    std::vector<double> values;
    for (double v = from; v <= to + 1e-9; v += step) {
        if (values.size() == maxSweepPoints)
            return Status::outOfRange("sweep too large (more than ",
                                      maxSweepPoints, " points)");
        values.push_back(v);
    }
    return values;
}

double
clamp(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

double
smoothMin(double a, double b, double p)
{
    ENA_ASSERT(a > 0.0 && b > 0.0, "smoothMin needs positive rates");
    ENA_ASSERT(p > 0.0, "smoothMin needs positive norm");
    return std::pow(std::pow(a, -p) + std::pow(b, -p), -1.0 / p);
}

double
interpolate(const std::vector<double> &xs, const std::vector<double> &ys,
            double x)
{
    ENA_ASSERT(xs.size() == ys.size() && !xs.empty(),
               "interpolate needs matching non-empty vectors");
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    auto it = std::upper_bound(xs.begin(), xs.end(), x);
    size_t i = static_cast<size_t>(it - xs.begin());
    double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
    return ys[i - 1] + t * (ys[i] - ys[i - 1]);
}

void
Summary::add(double v)
{
    if (n_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    sum_ += v;
    sumSq_ += v * v;
}

double
Summary::mean() const
{
    if (n_ == 0)
        ENA_FATAL("Summary::mean with no samples");
    return sum_ / static_cast<double>(n_);
}

double
Summary::min() const
{
    if (n_ == 0)
        ENA_FATAL("Summary::min with no samples");
    return min_;
}

double
Summary::max() const
{
    if (n_ == 0)
        ENA_FATAL("Summary::max with no samples");
    return max_;
}

double
Summary::stdev() const
{
    if (n_ < 2)
        return 0.0;
    double m = sum_ / static_cast<double>(n_);
    double var = (sumSq_ - static_cast<double>(n_) * m * m) /
                 static_cast<double>(n_ - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

} // namespace ena
