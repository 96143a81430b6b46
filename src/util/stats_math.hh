/**
 * @file
 * Small numeric helpers: means, geomean, linspace, clamping, smooth
 * minimum (used by the analytic roofline model), and a simple online
 * summary accumulator.
 */

#ifndef ENA_UTIL_STATS_MATH_HH
#define ENA_UTIL_STATS_MATH_HH

#include <cstddef>
#include <vector>

#include "util/status.hh"

namespace ena {

/** Arithmetic mean; fatal() on empty input. */
double mean(const std::vector<double> &xs);

/** Geometric mean; fatal() on empty input or non-positive values. */
double geomean(const std::vector<double> &xs);

/** Sample standard deviation (n-1); zero for fewer than two samples. */
double stdev(const std::vector<double> &xs);

/**
 * The @p p-th percentile (0..100) by linear interpolation between
 * order statistics: rank = p/100 * (n-1). A one-element input returns
 * that element for any p; fatal() on empty input or p outside
 * [0, 100].
 */
double percentile(std::vector<double> xs, double p);

/** @p n evenly spaced points from @p lo to @p hi inclusive (n >= 2). */
std::vector<double> linspace(double lo, double hi, size_t n);

/**
 * The values of a parameter-sweep axis: from, from + step, ... while
 * v <= to + 1e-9, accumulated as v += step (sweep_tool's and the
 * server's shared enumeration, so both emit the same values).
 * out_of_range for a non-positive step, non-finite bounds, to < from,
 * or more than 1e6 values; the count is checked as values are
 * produced, so a step too small to advance v fails instead of filling
 * memory.
 */
Expected<std::vector<double>> trySweepAxisValues(double from, double to,
                                                 double step);

/** Clamp @p v into [lo, hi]. */
double clamp(double v, double lo, double hi);

/**
 * Smooth minimum of two positive rates via a p-norm:
 * smin(a,b) = (a^-p + b^-p)^(-1/p). Larger @p p approaches hard min;
 * p ~ 4..8 gives the rounded roofline knees seen in measured GPU data.
 */
double smoothMin(double a, double b, double p = 6.0);

/** Linear interpolation of y(x) over sorted sample points (clamped). */
double interpolate(const std::vector<double> &xs,
                   const std::vector<double> &ys, double x);

/** Online accumulator for count/mean/min/max/stdev. */
class Summary
{
  public:
    void add(double v);

    size_t count() const { return n_; }
    double mean() const;
    double min() const;
    double max() const;
    double stdev() const;

  private:
    size_t n_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace ena

#endif // ENA_UTIL_STATS_MATH_HH
