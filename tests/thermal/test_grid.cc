/**
 * @file
 * Tests of the steady-state thermal solver against physics invariants
 * and closed-form checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/node_evaluator.hh"
#include "thermal/grid.hh"
#include "thermal/package_model.hh"

using namespace ena;

namespace {

Layer
makeLayer(const std::string &name, size_t n, double watts,
          double thickness = 200e-6, double k = 120.0)
{
    Layer l;
    l.name = name;
    l.thicknessM = thickness;
    l.conductivity = k;
    l.power = PowerMap(n, n);
    if (watts > 0.0)
        l.power.addUniform(watts);
    return l;
}

/** Conductance (W/K) between the centres of layers @p a and @p b. */
long double
verticalG(const Layer &a, const Layer &b, long double area)
{
    return area / (a.thicknessM / (2.0L * a.conductivity) +
                   b.thicknessM / (2.0L * b.conductivity));
}

/**
 * An a-posteriori bound on the solve's error, built without the solver:
 * |T - T_exact|_inf <= |b - A T|_inf * |A^-1|_inf. The residual is the
 * 7-point stencil written out as a point relaxation's num/den terms,
 * summed in long double so the check's own rounding stays well below
 * the bound. A is a symmetric M-matrix, so A^-1 >= 0 and |A^-1|_inf is
 * the largest entry of A^-1 * 1; the all-ones load is laterally
 * uniform, so that is one column solve over the layers.
 */
struct Certificate
{
    double residualW = 0.0;         ///< |b - A T|_inf
    double inverseNormKPerW = 0.0;  ///< |A^-1|_inf
    double sinkW = 0.0;             ///< heat leaving through the sink
    double powerW = 0.0;            ///< heat put in

    double boundC() const { return residualW * inverseNormKPerW; }
};

Certificate
certify(const ThermalGrid &grid)
{
    const ThermalGridParams &p = grid.params();
    const std::vector<Layer> &layers = grid.layers();
    const std::vector<LayerTemps> &temps = grid.temperatures();
    const size_t nl = layers.size();
    const size_t nx = temps[0].nx;
    const size_t ny = temps[0].ny;
    const long double dx = static_cast<long double>(p.widthM) / nx;
    const long double dy = static_cast<long double>(p.depthM) / ny;
    const long double g_sink = 1.0L / (p.sinkResistance * nx * ny);

    Certificate c;
    long double residual = 0.0L;
    long double sink = 0.0L;
    long double power = 0.0L;
    for (size_t l = 0; l < nl; ++l) {
        const Layer &ly = layers[l];
        const long double glx =
            static_cast<long double>(ly.conductivity) * ly.thicknessM *
            dy / dx;
        const long double gly =
            static_cast<long double>(ly.conductivity) * ly.thicknessM *
            dx / dy;
        const long double gdn =
            l > 0 ? verticalG(layers[l - 1], ly, dx * dy) : 0.0L;
        const long double gup =
            l + 1 < nl ? verticalG(ly, layers[l + 1], dx * dy) : 0.0L;
        const LayerTemps &t = temps[l];
        for (size_t y = 0; y < ny; ++y) {
            for (size_t x = 0; x < nx; ++x) {
                long double num = ly.power.at(x, y);
                long double den = 0.0L;
                power += ly.power.at(x, y);
                if (x > 0) {
                    num += glx * t.at(x - 1, y);
                    den += glx;
                }
                if (x + 1 < nx) {
                    num += glx * t.at(x + 1, y);
                    den += glx;
                }
                if (y > 0) {
                    num += gly * t.at(x, y - 1);
                    den += gly;
                }
                if (y + 1 < ny) {
                    num += gly * t.at(x, y + 1);
                    den += gly;
                }
                if (l > 0) {
                    num += gdn * temps[l - 1].at(x, y);
                    den += gdn;
                }
                if (l + 1 < nl) {
                    num += gup * temps[l + 1].at(x, y);
                    den += gup;
                } else {
                    num += g_sink * p.ambientC;
                    den += g_sink;
                    sink += g_sink * (t.at(x, y) - p.ambientC);
                }
                residual = std::max(residual,
                                    std::fabs(num - den * t.at(x, y)));
            }
        }
    }

    // A^-1 * 1: per-layer unit load, lateral terms vanish; Thomas.
    std::vector<long double> piv(nl);
    std::vector<long double> rhs(nl, 1.0L);
    std::vector<long double> gup(nl, 0.0L);
    for (size_t l = 0; l + 1 < nl; ++l)
        gup[l] = verticalG(layers[l], layers[l + 1], dx * dy);
    for (size_t l = 0; l < nl; ++l) {
        long double diag = gup[l] + (l > 0 ? gup[l - 1] : 0.0L) +
                           (l + 1 == nl ? g_sink : 0.0L);
        if (l > 0) {
            diag -= gup[l - 1] * gup[l - 1] / piv[l - 1];
            rhs[l] += gup[l - 1] * rhs[l - 1] / piv[l - 1];
        }
        piv[l] = diag;
    }
    long double inv_norm = 0.0L;
    long double above = 0.0L;
    for (size_t l = nl; l-- > 0;) {
        above = (rhs[l] + gup[l] * above) / piv[l];
        inv_norm = std::max(inv_norm, above);
    }

    c.residualW = static_cast<double>(residual);
    c.inverseNormKPerW = static_cast<double>(inv_norm);
    c.sinkW = static_cast<double>(sink);
    c.powerW = static_cast<double>(power);
    return c;
}

} // anonymous namespace

TEST(ThermalGrid, NoPowerMeansAmbientEverywhere)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_NEAR(grid.peak("die"), p.ambientC, 1e-3);
}

TEST(ThermalGrid, UniformPowerMatchesLumpedModel)
{
    // One uniformly-powered layer with only the sink path: steady state
    // must satisfy T = ambient + P * R_sink exactly.
    ThermalGridParams p;
    p.sinkResistance = 0.5;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 20.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_NEAR(grid.peak("die"), p.ambientC + 20.0 * 0.5, 1e-9);
}

TEST(ThermalGrid, HotterWithMorePower)
{
    ThermalGridParams p;
    for (double watts : {5.0, 10.0, 20.0}) {
        std::vector<Layer> layers;
        layers.push_back(makeLayer("die", 8, watts));
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        EXPECT_NEAR(grid.peak("die"),
                    p.ambientC + watts * p.sinkResistance, 0.1);
    }
}

TEST(ThermalGrid, LowerLayersRunHotter)
{
    // Heat source at the bottom of a stack must be hotter than layers
    // nearer the sink.
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("bottom", 8, 15.0));
    layers.push_back(makeLayer("mid", 8, 0.0));
    layers.push_back(makeLayer("top", 8, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_GT(grid.peak("bottom"), grid.peak("mid"));
    EXPECT_GT(grid.peak("mid"), grid.peak("top"));
    EXPECT_GT(grid.peak("top"), p.ambientC);
}

TEST(ThermalGrid, HotSpotAboveConcentratedSource)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    Layer die = makeLayer("die", 16, 0.0);
    die.power.addRect(2, 2, 2, 2, 10.0);   // corner hot spot
    layers.push_back(die);
    layers.push_back(makeLayer("cap", 16, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    const LayerTemps &cap = grid.temperatures()[1];
    // Cell above the source beats the far corner.
    EXPECT_GT(cap.at(3, 3), cap.at(14, 14) + 1.0);
}

TEST(ThermalGrid, InsulatingLayerRaisesSourceTemperature)
{
    auto peak_with_tim_k = [](double k_tim) {
        ThermalGridParams p;
        std::vector<Layer> layers;
        layers.push_back(makeLayer("die", 8, 15.0));
        layers.push_back(makeLayer("tim", 8, 0.0, 50e-6, k_tim));
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        return grid.peak("die");
    };
    EXPECT_GT(peak_with_tim_k(1.0), peak_with_tim_k(100.0) + 0.5);
}

TEST(ThermalGrid, LateralSpreadingSmoothsPeak)
{
    auto peak_with_conductivity = [](double k) {
        ThermalGridParams p;
        std::vector<Layer> layers;
        Layer die = makeLayer("die", 16, 0.0, 400e-6, k);
        die.power.addRect(6, 6, 4, 4, 15.0);
        layers.push_back(die);
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        return grid.peak("die");
    };
    // Higher lateral conductivity spreads the hot spot.
    EXPECT_GT(peak_with_conductivity(20.0),
              peak_with_conductivity(400.0) + 0.5);
}

TEST(ThermalGrid, AsciiHeatMapRendersAllRows)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 10.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    std::string art = grid.asciiHeatMap("die");
    int newlines = 0;
    for (char c : art) {
        if (c == '\n')
            ++newlines;
    }
    EXPECT_EQ(newlines, 9);   // 8 rows + range line
    EXPECT_NE(art.find("range"), std::string::npos);
}

TEST(ThermalGrid, DirectSolveIsCertifiedOnOddNonSquareStack)
{
    // 7 x 5 cells on a non-square die, three layers of different
    // thickness and conductivity, one point source in the bottom layer:
    // every DCT size, both lateral conductances and the Thomas
    // elimination differ from the square EHP case.
    ThermalGridParams p;
    p.widthM = 0.007;
    p.depthM = 0.011;
    p.sinkResistance = 1.3;
    std::vector<Layer> layers;
    Layer die;
    die.name = "die";
    die.thicknessM = 150e-6;
    die.conductivity = 110.0;
    die.power = PowerMap(7, 5);
    die.power.add(2, 3, 12.0);
    layers.push_back(die);
    Layer glue;
    glue.name = "glue";
    glue.thicknessM = 40e-6;
    glue.conductivity = 3.0;
    glue.power = PowerMap(7, 5);
    layers.push_back(glue);
    Layer lid;
    lid.name = "lid";
    lid.thicknessM = 800e-6;
    lid.conductivity = 390.0;
    lid.power = PowerMap(7, 5);
    layers.push_back(lid);
    ThermalGrid grid(p, std::move(layers));
    grid.solve();

    Certificate c = certify(grid);
    EXPECT_GT(c.inverseNormKPerW, p.sinkResistance * 35);
    EXPECT_LE(c.boundC(), 1e-9) << "residual " << c.residualW << " W";
    EXPECT_NEAR(c.sinkW, c.powerW, 1e-9 * c.powerW);
    // The source cell is the hottest one of the stack.
    const LayerTemps &bottom = grid.temperatures()[0];
    EXPECT_DOUBLE_EQ(bottom.peak(), bottom.at(2, 3));
}

TEST(ThermalGrid, EhpPackageSolveIsCertified)
{
    // The Fig. 10 column at the best-mean configuration, every app.
    NodeEvaluator eval;
    EhpPackageModel model;
    for (App app : allApps()) {
        const NodeConfig cfg = NodeConfig::bestMean();
        ThermalGrid grid =
            model.buildGrid(cfg, eval.evaluate(cfg, app).power);
        grid.solve();
        Certificate c = certify(grid);
        // 12 layers of unit load behind one column's sink: 23 230 K/W.
        EXPECT_NEAR(c.inverseNormKPerW, 23230.0, 5.0) << appName(app);
        EXPECT_LE(c.boundC(), 1e-9)
            << appName(app) << ": residual " << c.residualW << " W";
        EXPECT_NEAR(c.sinkW, c.powerW, 1e-9 * c.powerW) << appName(app);
    }
}

TEST(ThermalGrid, TransientApproachesSteadyState)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 20.0));
    ThermalGrid steady(p, {makeLayer("die", 8, 20.0)});
    steady.solve();
    double target = steady.peak("die");

    ThermalGrid transient(p, std::move(layers));
    // A short transient undershoots; a long one converges.
    transient.stepTransient(1e-4);
    double early = transient.peak("die");
    EXPECT_LT(early, target - 1.0);
    transient.stepTransient(60.0);
    EXPECT_NEAR(transient.peak("die"), target, 0.25);
}

TEST(ThermalGrid, TransientHeatsMonotonically)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 15.0));
    ThermalGrid grid(p, std::move(layers));
    double prev = p.ambientC;
    for (int i = 0; i < 5; ++i) {
        grid.stepTransient(0.05);
        double t = grid.peak("die");
        EXPECT_GE(t, prev - 1e-9);
        prev = t;
    }
    EXPECT_GT(prev, p.ambientC);
}

TEST(ThermalGrid, TransientReachesHotStateAndDtIsSane)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 15.0));
    ThermalGrid grid(p, std::move(layers));
    grid.stepTransient(60.0);   // reach (near) steady state
    EXPECT_GT(grid.peak("die"), p.ambientC + 5.0);
    // The explicit-Euler stability step must be positive and far below
    // the stack's thermal time constant (seconds).
    EXPECT_GT(grid.stableDtS(), 0.0);
    EXPECT_LT(grid.stableDtS(), 1.0);
}

TEST(ThermalGrid, HigherHeatCapacitySlowsTheTransient)
{
    ThermalGridParams p;
    auto rise_after = [&](double cap) {
        Layer die = makeLayer("die", 8, 15.0);
        die.heatCapacity = cap;
        ThermalGrid grid(p, {die});
        grid.stepTransient(0.02);
        return grid.peak("die") - p.ambientC;
    };
    EXPECT_GT(rise_after(0.5e6), rise_after(4e6) + 0.2);
}

TEST(ThermalGridDeathTest, MismatchedLayersAreFatal)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("a", 8, 1.0));
    layers.push_back(makeLayer("b", 16, 1.0));
    EXPECT_EXIT(ThermalGrid(p, std::move(layers)),
                testing::ExitedWithCode(1), "grid mismatch");
}

TEST(ThermalGridDeathTest, NonPositiveSinkResistanceIsFatal)
{
    // Without a sink the uniform lateral mode is singular.
    for (double r : {0.0, -1.0}) {
        ThermalGridParams p;
        p.sinkResistance = r;
        EXPECT_EXIT(ThermalGrid(p, {makeLayer("die", 8, 1.0)}),
                    testing::ExitedWithCode(1), "sink resistance");
    }
}

TEST(ThermalGridDeathTest, UnknownLayerQueryIsFatal)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 1.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_EXIT(grid.peak("ghost"), testing::ExitedWithCode(1),
                "no thermal layer");
}

TEST(ThermalGridDeathTest, QueryBeforeSolvePanics)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 1.0));
    ThermalGrid grid(p, std::move(layers));
    EXPECT_DEATH(grid.temperatures(), "before solve");
}
