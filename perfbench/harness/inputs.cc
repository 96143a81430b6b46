#include "harness/inputs.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "cluster/cluster_config_io.hh"
#include "cluster/resilient_cluster.hh"
#include "cluster/resilient_cluster_io.hh"
#include "common/node_config_io.hh"
#include "harness/stats.hh"
#include "server/wire.hh"
#include "taskgraph/scheduler.hh"
#include "util/config.hh"
#include "util/rng.hh"
#include "util/string_utils.hh"

namespace perfbench {

using ena::App;
using ena::Rng;

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index)
{
    // SplitMix64 finalizer over a mix of the three words.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^
                      (purpose + 1) * 0xc2b2ae3d27d4eb4full ^
                      (index + 1) * 0x165667b19e3779f9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

/** Purposes of subSeed; one per generated input family. */
enum Purpose : std::uint64_t
{
    kArtifacts = 100,
    kChiplet = 200,
    kGrid = 300,
    kCells = 400,
    kMix = 500,
    kHotSet = 501,
};

std::string
num(double v)
{
    return ena::strformat("%.17g", v);
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** @p n distinct sorted values in [lo, hi], the first pinned to lo. */
std::vector<double>
axis(Rng &rng, int n, double lo, double hi)
{
    std::set<double> vals{lo};
    while (static_cast<int>(vals.size()) < n)
        vals.insert(lo + (hi - lo) * rng.uniform());
    return {vals.begin(), vals.end()};
}

ena::NodeConfig
randomNode(Rng &rng)
{
    ena::NodeConfig cfg;
    cfg.cus = static_cast<int>(rng.range(192, 384));
    cfg.freqGhz = 0.7 + 0.8 * rng.uniform();
    cfg.bwTbs = 1.0 + 6.0 * rng.uniform();
    return cfg;
}

App
randomApp(Rng &rng)
{
    const std::vector<App> &apps = ena::allApps();
    return apps[rng.below(apps.size())];
}

/** Only the three swept knobs travel; everything else is default. */
std::string
nodeText(const ena::NodeConfig &cfg)
{
    return "ehp.cus = " + std::to_string(cfg.cus) +
           "\nehp.freq_ghz = " + num(cfg.freqGhz) +
           "\nehp.bw_tbs = " + num(cfg.bwTbs) + "\n";
}

ena::ClusterConfig
randomCluster(Rng &rng)
{
    static const int sizes[] = {256, 1024, 4096, 16384, 65536, 100000};
    ena::ClusterConfig c;
    const auto &topos = ena::allClusterTopologies();
    c.topology = topos[rng.below(topos.size())];
    c.nodes = sizes[rng.below(std::size(sizes))];
    return c;
}

ena::TaskGraphSpec
randomDag(Rng &rng, int min_size, int max_size)
{
    ena::TaskGraphSpec s;
    const auto &shapes = ena::allDagShapes();
    s.shape = shapes[rng.below(shapes.size())];
    s.app = randomApp(rng);
    s.size = static_cast<int>(rng.range(min_size, max_size));
    s.depth = static_cast<int>(rng.range(2, 6));
    s.taskGflops = 16.0 + 112.0 * rng.uniform();
    s.edgeMb = 1.0 + 31.0 * rng.uniform();
    s.seed = rng.next() % 1000000;
    return s;
}

} // anonymous namespace

// ---- paper_artifacts ----------------------------------------------

const std::vector<std::string> &
artifactIds()
{
    static const std::vector<std::string> ids = {
        "table1", "table2", "fig4",  "fig5",  "fig6",  "fig7", "fig8",
        "fig9",   "fig10",  "fig11", "fig12", "fig13", "fig14"};
    return ids;
}

std::string
ArtifactPlan::serialize() const
{
    std::ostringstream os;
    os << "order";
    for (const std::string &id : order)
        os << " " << id;
    os << "\nfig8_seed " << fig8Seed << "\n";
    return os.str();
}

ArtifactPlan
makeArtifactPlan(std::uint64_t seed, std::uint64_t regen)
{
    Rng rng(subSeed(seed, kArtifacts, regen));
    ArtifactPlan p;
    p.order = artifactIds();
    shuffle(p.order, rng);
    p.fig8Seed = 1 + rng.below(1000000);
    return p;
}

// ---- chiplet_sim ---------------------------------------------------

std::string
ChipletPass::serialize() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < apps.size(); ++i)
        os << ena::appName(apps[i]) << " " << traceSeeds[i] << "\n";
    os << "twolevel " << ena::appName(twoLevelApp) << " " << twoLevelSeed
       << " " << num(twoLevelCapacity) << "\npingpong " << pingPongSeed
       << "\n";
    return os.str();
}

ChipletPass
makeChipletPass(std::uint64_t seed, std::uint64_t pass)
{
    Rng rng(subSeed(seed, kChiplet, pass));
    ChipletPass p;
    p.apps = {App::XSBench, App::SNAP, App::CoMD};
    for (std::size_t i = 0; i < p.apps.size(); ++i)
        p.traceSeeds.push_back(1 + rng.below(1000000));
    static const double capacities[] = {0.5, 0.25};
    p.twoLevelSeed = 1 + rng.below(1000000);
    p.twoLevelCapacity = capacities[rng.below(2)];
    p.pingPongSeed = 1 + rng.below(1000000);
    return p;
}

// ---- design_sweep --------------------------------------------------

std::string
CellsInput::serialize() const
{
    std::ostringstream os;
    os << nodeText(cfg) << "app " << ena::appName(app) << "\ncomm "
       << ena::commPatternName(comm.pattern) << " " << num(comm.intensity)
       << "\nnodes";
    for (int n : nodeCounts)
        os << " " << n;
    os << "\n";
    for (const ena::TaskGraphSpec &dag : dags)
        os << ena::taskGraphSpecToConfig(dag).toString();
    return os.str();
}

ena::DseGrid
designGridFor(std::uint64_t seed, DesignStream stream, std::uint64_t pass)
{
    Rng rng(subSeed(seed, kGrid, (pass << 1) | stream));
    ena::DseGrid g;
    std::set<int> cus{192};
    while (cus.size() < 14)
        cus.insert(static_cast<int>(rng.range(193, 384)));
    g.cus.assign(cus.begin(), cus.end());
    g.freqsGhz = axis(rng, 20, 0.7, 1.5);
    g.bwsTbs = axis(rng, 14, 1.0, 7.0);
    return g;
}

std::string
serializeGrid(const ena::DseGrid &g)
{
    std::ostringstream os;
    os << "cus";
    for (int c : g.cus)
        os << " " << c;
    os << "\nfreq";
    for (double f : g.freqsGhz)
        os << " " << num(f);
    os << "\nbw";
    for (double b : g.bwsTbs)
        os << " " << num(b);
    os << "\n";
    return os.str();
}

CellsInput
makeCellsInput(std::uint64_t seed, std::uint64_t pass)
{
    Rng rng(subSeed(seed, kCells, pass));
    CellsInput c;
    c.cfg = randomNode(rng);
    c.app = randomApp(rng);
    c.comm.intensity = 0.5 + rng.uniform();
    c.nodeCounts = {1024, 4096, 16384, 100000};
    for (int copy = 0; copy < 2; ++copy) {
        for (ena::DagShape shape : ena::allDagShapes()) {
            ena::TaskGraphSpec s = randomDag(rng, 16, 16);
            s.shape = shape;
            s.depth = 6;
            c.dags.push_back(s);
        }
    }
    return c;
}

// ---- server_mix ----------------------------------------------------

const char *
mixOpName(MixOp op)
{
    switch (op) {
      case MixOp::EvalNode:
        return "eval_node";
      case MixOp::Sweep:
        return "sweep";
      case MixOp::ClusterEval:
        return "cluster_eval";
      case MixOp::ResilientEval:
        return "resilient_eval";
      case MixOp::TaskGraphEval:
        return "taskgraph_eval";
      case MixOp::Table2:
        return "table2";
    }
    return "?";
}

const std::vector<MixOp> &
allMixOps()
{
    static const std::vector<MixOp> ops = {
        MixOp::EvalNode,      MixOp::Sweep,         MixOp::ClusterEval,
        MixOp::ResilientEval, MixOp::TaskGraphEval, MixOp::Table2};
    return ops;
}

const MixShares &
serverMixShares()
{
    // eval_node, sweep, cluster_eval, resilient_eval, taskgraph_eval,
    // table2 -- per million requests.
    static const MixShares shares{{930000, 16000, 20000, 20000, 12000,
                                   2000}};
    return shares;
}

ena::wire::JsonValue
MixRequest::params() const
{
    ena::wire::JsonValue p = ena::wire::JsonValue::object();
    switch (op) {
      case MixOp::EvalNode:
      case MixOp::ClusterEval:
      case MixOp::ResilientEval:
        p.set("app", app);
        p.set("config", config);
        break;
      case MixOp::Sweep:
        p.set("app", app);
        p.set("axis", axis);
        p.set("from", from);
        p.set("to", to);
        p.set("step", step);
        p.set("config", config);
        break;
      case MixOp::TaskGraphEval:
        p.set("scheduler", scheduler);
        p.set("config", config);
        break;
      case MixOp::Table2:
        p.set("budget_w", budgetW);
        break;
    }
    return p;
}

std::string
MixRequest::line(std::uint64_t id) const
{
    ena::wire::JsonValue req = params();
    req.set("op", mixOpName(op));
    req.set("id", static_cast<unsigned long>(id));
    return req.dump();
}

std::uint64_t
MixRequest::key() const
{
    return hashString(std::string(mixOpName(op)) + "\n" + params().dump());
}

namespace {

MixRequest
evalNodeRequest(Rng &rng)
{
    MixRequest r;
    r.op = MixOp::EvalNode;
    r.app = ena::appName(randomApp(rng));
    r.config = nodeText(randomNode(rng));
    return r;
}

} // anonymous namespace

MixRequest
makeMixRequest(std::uint64_t seed, std::uint64_t index)
{
    Rng rng(subSeed(seed, kMix, index));
    const MixShares &shares = serverMixShares();
    std::uint64_t draw = rng.below(1000000);
    std::size_t k = 0;
    while (k + 1 < allMixOps().size() && draw >= shares.perMillion[k]) {
        draw -= shares.perMillion[k];
        ++k;
    }
    const MixOp op = allMixOps()[k];

    MixRequest r;
    switch (op) {
      case MixOp::EvalNode:
        if (rng.chance(kHotShare)) {
            Rng hot(subSeed(seed, kHotSet, rng.below(kHotSetSize)));
            r = evalNodeRequest(hot);
            r.hot = true;
        } else {
            r = evalNodeRequest(rng);
        }
        break;
      case MixOp::Sweep: {
        r.op = op;
        r.app = ena::appName(randomApp(rng));
        ena::NodeConfig base = randomNode(rng);
        switch (rng.below(3)) {
          case 0:
            r.axis = "cus";
            r.from = 192.0;
            r.step = 4.0;
            break;
          case 1:
            r.axis = "freq";
            r.from = 0.7 + 0.3 * rng.uniform();
            r.step = 0.01;
            break;
          default:
            r.axis = "bw";
            r.from = 1.0 + 2.0 * rng.uniform();
            r.step = 0.05;
            break;
        }
        // The server enumerates v = from; v <= to + 1e-9; v += step, so
        // ending half a step past the last point gives exactly
        // kSweepPoints points whatever the rounding of the sum.
        r.to = r.from + (kSweepPoints - 0.5) * r.step;
        r.config = nodeText(base);
        break;
      }
      case MixOp::ClusterEval:
      case MixOp::ResilientEval: {
        r.op = op;
        r.app = ena::appName(randomApp(rng));
        std::string text = nodeText(randomNode(rng)) +
                           ena::clusterConfigToConfig(randomCluster(rng))
                               .toString();
        if (op == MixOp::ResilientEval) {
            const auto &variants = ena::standardProtectionVariants();
            text += ena::resilienceSpecToConfig(
                        variants[rng.below(variants.size())].spec)
                        .toString();
        }
        r.config = text;
        break;
      }
      case MixOp::TaskGraphEval: {
        r.op = op;
        const auto &scheds = ena::allDagSchedulers();
        r.scheduler =
            ena::dagSchedulerName(scheds[rng.below(scheds.size())]);
        r.config = nodeText(randomNode(rng)) +
                   ena::clusterConfigToConfig(randomCluster(rng))
                       .toString() +
                   ena::taskGraphSpecToConfig(randomDag(rng, 4, 10))
                       .toString();
        break;
      }
      case MixOp::Table2:
        r.op = op;
        r.budgetW = 150.0 + 20.0 * rng.uniform();
        break;
    }
    return r;
}

ena::NodeConfig
mixNodeConfig(const MixRequest &r)
{
    ena::Config cfg = ena::unwrapOrFatal(
        ena::Config::tryFromString(r.config, "request"));
    return ena::unwrapOrFatal(ena::tryNodeConfigFromConfig(cfg));
}

} // namespace perfbench
