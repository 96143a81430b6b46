#include "thermal/grid.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace ena {

double
LayerTemps::peak() const
{
    return *std::max_element(t.begin(), t.end());
}

ThermalGrid::ThermalGrid(ThermalGridParams params,
                         std::vector<Layer> layers)
    : params_(params), layers_(std::move(layers))
{
    if (layers_.empty())
        ENA_FATAL("thermal grid needs at least one layer");
    if (!(params_.sinkResistance > 0.0))
        ENA_FATAL("thermal grid needs a positive sink resistance, got ",
                  params_.sinkResistance);
    nx_ = layers_.front().power.nx();
    ny_ = layers_.front().power.ny();
    for (const Layer &l : layers_) {
        if (l.power.nx() != nx_ || l.power.ny() != ny_)
            ENA_FATAL("layer '", l.name, "' grid mismatch: ",
                      l.power.nx(), "x", l.power.ny(), " vs ", nx_, "x",
                      ny_);
        if (l.thicknessM <= 0.0 || l.conductivity <= 0.0)
            ENA_FATAL("layer '", l.name, "' needs positive thickness "
                      "and conductivity");
    }
    temps_.assign(layers_.size() * nx_ * ny_, params_.ambientC);
}

size_t
ThermalGrid::idx(size_t layer, size_t x, size_t y) const
{
    return (layer * ny_ + y) * nx_ + x;
}

ThermalGrid::Conductances
ThermalGrid::conductances() const
{
    const size_t nl = layers_.size();
    const double dx = params_.widthM / static_cast<double>(nx_);
    const double dy = params_.depthM / static_cast<double>(ny_);
    Conductances g;
    g.gup.assign(nl, 0.0);
    for (size_t l = 0; l < nl; ++l) {
        const Layer &ly = layers_[l];
        g.glx.push_back(ly.conductivity * ly.thicknessM * dy / dx);
        g.gly.push_back(ly.conductivity * ly.thicknessM * dx / dy);
        g.cap.push_back(ly.heatCapacity * dx * dy * ly.thicknessM);
        // Vertical: series resistance of the two half-thicknesses.
        if (l + 1 < nl) {
            g.gup[l] = dx * dy /
                       (ly.thicknessM / (2.0 * ly.conductivity) +
                        layers_[l + 1].thicknessM /
                            (2.0 * layers_[l + 1].conductivity));
        }
    }
    g.gSink =
        1.0 / (params_.sinkResistance * static_cast<double>(nx_ * ny_));
    return g;
}

namespace {

/**
 * Orthonormal DCT-II of length n: c (row k is mode k at the n cells),
 * its transpose, and the eigenvalues 4 sin^2(pi k / 2n) of the 1-D
 * Neumann Laplacian it diagonalises.
 */
struct Dct
{
    std::vector<double> c, cT, lam;

    explicit Dct(size_t n) : c(n * n), cT(n * n), lam(n)
    {
        const double pi = std::acos(-1.0);
        for (size_t k = 0; k < n; ++k) {
            const double s = std::sin(pi * k / (2.0 * n));
            lam[k] = 4.0 * s * s;
            const double scale = std::sqrt((k == 0 ? 1.0 : 2.0) / n);
            for (size_t j = 0; j < n; ++j) {
                c[k * n + j] = cT[j * n + k] =
                    scale * std::cos(pi * k * (2.0 * j + 1.0) / (2.0 * n));
            }
        }
    }
};

/**
 * out = left * in * right for a row-major ny x nx block @p in, with
 * @p left ny x ny and @p right nx x nx.
 */
void
sandwich(const std::vector<double> &left, const double *in,
         const std::vector<double> &right, double *out, size_t nx,
         size_t ny)
{
    std::vector<double> tmp(nx * ny, 0.0);
    for (size_t y = 0; y < ny; ++y)
        for (size_t x = 0; x < nx; ++x)
            for (size_t k = 0; k < nx; ++k)
                tmp[y * nx + k] += in[y * nx + x] * right[x * nx + k];
    std::fill(out, out + nx * ny, 0.0);
    for (size_t k = 0; k < ny; ++k)
        for (size_t y = 0; y < ny; ++y)
            for (size_t x = 0; x < nx; ++x)
                out[k * nx + x] += left[k * ny + y] * tmp[y * nx + x];
}

} // anonymous namespace

void
ThermalGrid::solve()
{
    // In theta = T - ambient the system is A theta = P.
    const size_t nl = layers_.size();
    const size_t cells = nx_ * ny_;
    const Conductances g = conductances();
    const Dct cx(nx_);
    const Dct cy(ny_);

    // 1. Each layer's power map into lateral modes, Cy P Cx^T, held in
    // temps_ until step 3.
    for (size_t l = 0; l < nl; ++l) {
        sandwich(cy.c, layers_[l].power.cells().data(), cx.cT,
                 &temps_[idx(l, 0, 0)], nx_, ny_);
    }

    // 2. Per mode, a tridiagonal system over the layers (Thomas). Layer
    // l's pivot is excess + gup[l], where excess >= 0 sums the lateral,
    // sink and eliminated terms below: no subtraction, so no
    // cancellation even in the near-singular uniform mode.
    std::vector<double> pivot(nl);
    for (size_t m = 0; m < cells; ++m) {
        double excess = 0.0;
        for (size_t l = 0; l < nl; ++l) {
            const bool top = l + 1 == nl;
            double e = g.glx[l] * cx.lam[m % nx_] +
                       g.gly[l] * cy.lam[m / nx_] + (top ? g.gSink : 0.0);
            if (l > 0) {
                e += g.gup[l - 1] * excess / pivot[l - 1];
                temps_[l * cells + m] += g.gup[l - 1] *
                                         temps_[(l - 1) * cells + m] /
                                         pivot[l - 1];
            }
            excess = e;
            pivot[l] = e + (top ? 0.0 : g.gup[l]);
        }
        for (size_t l = nl; l-- > 0;) {
            double &theta = temps_[l * cells + m];
            if (l + 1 < nl)
                theta += g.gup[l] * temps_[(l + 1) * cells + m];
            theta /= pivot[l];
        }
    }

    // 3. Back to cells: T = ambient + Cy^T theta Cx. The uniform mode
    // (the layer's mean rise, which dwarfs the lateral detail) is added
    // with ambient afterwards, so each cell rounds once at full
    // magnitude rather than at every accumulation.
    std::vector<double> modes(cells);
    for (size_t l = 0; l < nl; ++l) {
        double *t = &temps_[idx(l, 0, 0)];
        std::copy(t, t + cells, modes.begin());
        const double offset =
            params_.ambientC + modes[0] * cy.c[0] * cx.c[0];
        modes[0] = 0.0;
        sandwich(cy.cT, modes.data(), cx.c, t, nx_, ny_);
        for (size_t i = 0; i < cells; ++i)
            t[i] += offset;
    }
    publish();
}

double
ThermalGrid::stableDtS() const
{
    // Conservative bound: C_min / G_max over layers.
    const Conductances g = conductances();
    const size_t nl = layers_.size();
    double worst = 1e30;
    for (size_t l = 0; l < nl; ++l) {
        double gtot = 2.0 * g.glx[l] + 2.0 * g.gly[l] +
                      (l + 1 < nl ? g.gup[l] : g.gSink) +
                      (l > 0 ? g.gup[l - 1] : 0.0);
        worst = std::min(worst, g.cap[l] / gtot);
    }
    return 0.5 * worst;
}

int
ThermalGrid::stepTransient(double seconds)
{
    ENA_ASSERT(seconds > 0.0, "transient needs positive duration");
    const size_t nl = layers_.size();
    const Conductances g = conductances();

    double dt = stableDtS();
    int steps = static_cast<int>(seconds / dt) + 1;
    dt = seconds / steps;

    const size_t cells = nx_ * ny_;
    std::vector<double> next(temps_.size());
    for (int step = 0; step < steps; ++step) {
        for (size_t i = 0; i < temps_.size(); ++i) {
            const size_t l = i / cells;
            const size_t x = i % nx_;
            const size_t y = i % cells / nx_;
            const double t = temps_[i];
            // Heat flowing in from cell j through conductance gc.
            auto in = [&](bool has, size_t j, double gc) {
                return has ? gc * (temps_[j] - t) : 0.0;
            };
            double q = layers_[l].power.at(x, y) +
                       in(x > 0, i - 1, g.glx[l]) +
                       in(x + 1 < nx_, i + 1, g.glx[l]) +
                       in(y > 0, i - nx_, g.gly[l]) +
                       in(y + 1 < ny_, i + nx_, g.gly[l]) +
                       in(l > 0, i - cells, l > 0 ? g.gup[l - 1] : 0.0) +
                       (l + 1 < nl ? g.gup[l] * (temps_[i + cells] - t)
                                   : g.gSink * (params_.ambientC - t));
            next[i] = t + dt * q / g.cap[l];
        }
        temps_.swap(next);
    }
    publish();
    return steps;
}

void
ThermalGrid::publish()
{
    layerTemps_.clear();
    for (size_t l = 0; l < layers_.size(); ++l) {
        const double *t = &temps_[idx(l, 0, 0)];
        layerTemps_.push_back(LayerTemps{layers_[l].name, nx_, ny_,
                                         {t, t + nx_ * ny_}});
    }
    solved_ = true;
}

const std::vector<LayerTemps> &
ThermalGrid::temperatures() const
{
    ENA_ASSERT(solved_, "temperatures() before solve()");
    return layerTemps_;
}

const LayerTemps &
ThermalGrid::layerNamed(const std::string &name) const
{
    for (const LayerTemps &lt : temperatures()) {
        if (lt.name == name)
            return lt;
    }
    ENA_FATAL("no thermal layer named '", name, "'");
}

double
ThermalGrid::peak(const std::string &layer_name) const
{
    return layerNamed(layer_name).peak();
}

std::string
ThermalGrid::asciiHeatMap(const std::string &layer_name, int levels) const
{
    ENA_ASSERT(levels >= 2 && levels <= 10, "levels must be 2..10");
    const LayerTemps *lt = &layerNamed(layer_name);

    double lo = *std::min_element(lt->t.begin(), lt->t.end());
    double hi = lt->peak();
    double span = std::max(hi - lo, 1e-9);
    static const char *glyphs = " .:-=+*#%@";

    std::ostringstream os;
    for (size_t y = 0; y < lt->ny; ++y) {
        for (size_t x = 0; x < lt->nx; ++x) {
            double u = (lt->at(x, y) - lo) / span;
            int g = std::min(levels - 1,
                             static_cast<int>(u * levels));
            os << glyphs[g];
        }
        os << "\n";
    }
    os << "range " << lo << " .. " << hi << " C\n";
    return os.str();
}

} // namespace ena
