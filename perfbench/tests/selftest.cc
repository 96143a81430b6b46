/**
 * @file
 * Self tests of the benchmark's own code: seeded input generation, the
 * order-statistic helpers, and the repeat-share count. Build and run:
 *
 *   python3 perfbench/run.py --selftest
 *
 * (or `ctest` in the perfbench build directory). Exits non-zero on the
 * first failed expectation's summary.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/inputs.hh"
#include "harness/stats.hh"
#include "harness/trace.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    if (!cond) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

/** Every generator's canonical bytes for one seed. */
std::string
allInputs(std::uint64_t seed)
{
    std::string s;
    for (std::uint64_t i = 0; i < 3; ++i) {
        s += makeArtifactPlan(seed, i).serialize();
        s += makeChipletPass(seed, i).serialize();
        s += serializeGrid(designGridFor(seed, kPlainGrids, i));
        s += serializeGrid(designGridFor(seed, kJournalGrids, i));
        s += makeCellsInput(seed, i).serialize();
    }
    for (std::uint64_t i = 0; i < 2000; ++i)
        s += makeMixRequest(seed, i).line(i) + "\n";
    return s;
}

void
testInputs()
{
    const std::string a = allInputs(7);
    expect(a == allInputs(7), "same seed gives byte-identical inputs");
    expect(a != allInputs(8), "different seeds give different inputs");
    expect(makeArtifactPlan(7, 0).serialize() !=
               makeArtifactPlan(8, 0).serialize(),
           "artifact plans differ across seeds");
    expect(serializeGrid(designGridFor(7, kPlainGrids, 0)) !=
               serializeGrid(designGridFor(7, kJournalGrids, 0)),
           "plain and journal grids differ");

    const ena::DseGrid g = designGridFor(3, kPlainGrids, 5);
    expect(g.cus.front() == 192 && g.freqsGhz.front() == 0.7 &&
               g.bwsTbs.front() == 1.0,
           "every grid keeps the low corner");
    expect(g.cus.back() <= 384 && g.freqsGhz.back() <= 1.5 &&
               g.bwsTbs.back() <= 7.0,
           "grid stays inside the paper's ranges");
    expect(g.size() == 14 * 20 * 14, "grid is 14 x 20 x 14");

    // The op mix over a long stream lands near the stated shares.
    std::vector<double> counts(allMixOps().size(), 0.0);
    const int n = 200000;
    int hot = 0, evals = 0;
    for (int i = 0; i < n; ++i) {
        const MixRequest r = makeMixRequest(11, static_cast<std::uint64_t>(i));
        counts[static_cast<std::size_t>(r.op)] += 1.0;
        if (r.op == MixOp::EvalNode) {
            ++evals;
            hot += r.hot;
        }
    }
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const double want = serverMixShares().perMillion[k] / 1e6;
        expect(std::fabs(counts[k] / n - want) < 0.003,
               std::string("mix share of ") + mixOpName(allMixOps()[k]));
    }
    expect(std::fabs(static_cast<double>(hot) / evals - kHotShare) < 0.01,
           "hot-set share of eval_node");
}

void
testStats()
{
    expect(std::isnan(median({})), "median of nothing is NaN");
    expectNear(median({5.0}), 5.0, "median of one");
    expectNear(median({3.0, 1.0, 2.0}), 2.0, "median of odd count");
    expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even count");

    // Reference values from Python: statistics.quantiles(xs, n=4).
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expectNear(q[0], 2.75, "q1 of 1..10");
    expectNear(q[1], 5.5, "q2 of 1..10");
    expectNear(q[2], 8.25, "q3 of 1..10");
    q = quartiles({10.0, 1.0});
    // Python extrapolates past the data for tiny samples.
    expectNear(q[0], -1.25, "q1 of two values");
    expectNear(q[1], 5.5, "q2 of two values");
    expectNear(q[2], 12.25, "q3 of two values");
    q = quartiles({1, 2, 3, 4, 5});
    expectNear(q[0], 1.5, "q1 of 1..5");
    expectNear(q[2], 4.5, "q3 of 1..5");
    expect(std::isnan(quartiles({1.0})[0]), "quartiles need two values");
    expectNear(iqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5,
               "IQR share of 1..10");
    expectNear(iqrShare({2.0, 2.0, 2.0}), 0.0, "IQR share of constants");

    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(i);
    expectNear(percentile(xs, 50000), 500, "p50 of 1..1000");
    expectNear(percentile(xs, 99000), 990, "p99 of 1..1000");
    expectNear(percentile(xs, 99900), 999, "p99.9 of 1..1000");
    expectNear(percentile(xs, 100000), 1000, "p100 of 1..1000");
    expectNear(percentile({7.0}, 99000), 7.0, "p99 of one value");
    expect(samplesBeyond(1000, 99000) == 10, "10 samples beyond p99 of 1000");
    expect(samplesBeyond(1000, 99900) == 1, "1 sample beyond p99.9 of 1000");
    expect(highestSupportedPercentile(1000) == 99000,
           "p99 is the highest supported percentile of 1000");
    expect(highestSupportedPercentile(999) == 90000,
           "999 samples support only p90");
    expect(highestSupportedPercentile(100) == 90000,
           "100 samples support p90");
    expect(highestSupportedPercentile(19) == 0, "19 samples support none");
    expect(highestSupportedPercentile(20) == 50000, "20 samples support p50");
    expect(highestSupportedPercentile(100000) == 99990,
           "100000 samples support p99.99");
}

void
testRepeatShare()
{
    expectNear(repeatShare({}), 0.0, "empty stream");
    expectNear(repeatShare({1, 2, 3}), 0.0, "no repeats");
    // a b a c b a: the second a, the second b and the third a repeat.
    expectNear(repeatShare({1, 2, 1, 3, 2, 1}), 0.5, "hand-built stream");
    expectNear(repeatShare({4, 4, 4, 4}), 0.75, "one key four times");

    // The generated stream: requests with equal parameters share a key.
    const MixRequest a = makeMixRequest(5, 0);
    expect(a.key() == makeMixRequest(5, 0).key(), "keys are stable");
}

void
testSelfTime()
{
    std::vector<SpanRecord> spans(3);
    spans[0] = {"root", 0.0, 100.0, -1, 0, 0};
    spans[1] = {"child", 10.0, 40.0, 0, 0, 0};
    spans[2] = {"child", 50.0, 60.0, 0, 0, 0};
    const std::vector<double> self = selfTimesUs(spans);
    expectNear(self[0], 60.0, "root self time excludes children");
    expectNear(self[1], 30.0, "leaf self time is its duration");
}

} // anonymous namespace

int
main()
{
    testInputs();
    testStats();
    testRepeatShare();
    testSelfTime();
    if (failures) {
        std::cerr << failures << " expectation(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self tests passed\n";
    return 0;
}
