/**
 * @file
 * Seeded input generators for the four workloads. Every input is a
 * pure function of (seed, purpose, index), so the same seed gives the
 * same bytes however far a run gets, a different seed gives different
 * inputs, and the program under test only ever sees the generated
 * values. Each input has a canonical text form (serialize) that the
 * self tests compare byte for byte.
 */

#ifndef PERFBENCH_HARNESS_INPUTS_HH
#define PERFBENCH_HARNESS_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_config.hh"
#include "cluster/comm_pattern.hh"
#include "common/node_config.hh"
#include "core/dse.hh"
#include "server/wire.hh"
#include "taskgraph/task_dag_io.hh"
#include "workloads/kernel_profile.hh"

namespace perfbench {

/** Independent 64-bit seed for one (purpose, index) of a run seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t purpose,
                      std::uint64_t index = 0);

// ---- paper_artifacts ----------------------------------------------

/** The artifact ids, in paper order: table1, table2, fig4 .. fig14. */
const std::vector<std::string> &artifactIds();

/** One regeneration's plan: artifact order and the Fig. 8 trace seed.
 *  Nothing else about the artifacts depends on the seed. */
struct ArtifactPlan
{
    std::vector<std::string> order;
    std::uint64_t fig8Seed = 21;   ///< TwoLevelParams::seed

    std::string serialize() const;
};

ArtifactPlan makeArtifactPlan(std::uint64_t seed, std::uint64_t regen);

// ---- chiplet_sim ---------------------------------------------------

/** Inputs of one chiplet_sim pass. */
struct ChipletPass
{
    std::vector<ena::App> apps;             ///< the Fig. 7 apps
    std::vector<std::uint64_t> traceSeeds;  ///< one per app
    ena::App twoLevelApp = ena::App::XSBench;
    std::uint64_t twoLevelSeed = 21;
    double twoLevelCapacity = 0.5;          ///< in-package / footprint
    std::uint64_t pingPongSeed = 1;

    std::string serialize() const;
};

ChipletPass makeChipletPass(std::uint64_t seed, std::uint64_t pass);

// ---- design_sweep --------------------------------------------------

/** The scale-out cells of one design_sweep pass: the same machine
 *  sizes and two DAGs of every shape each pass, so every pass does the
 *  same amount of work; the seed varies the values. */
struct CellsInput
{
    ena::NodeConfig cfg;
    ena::App app = ena::App::MaxFlops;
    ena::CommSpec comm;
    std::vector<int> nodeCounts;
    std::vector<ena::TaskGraphSpec> dags;   ///< two per DagShape

    std::string serialize() const;
};

/** The design_sweep phases that sweep grids; their grids differ. */
enum DesignStream : std::uint64_t
{
    kPlainGrids = 0,
    kJournalGrids = 1,
};

/** Grid of @p pass in phase @p stream: a fresh 14 x 20 x 14 grid from
 *  the paper's ranges (CUs 192-384, 0.7-1.5 GHz, 1-7 TB/s), always
 *  containing the low corner (192, 0.7, 1.0) so a feasible point exists
 *  under the 160 W budget. Grids never repeat. */
ena::DseGrid designGridFor(std::uint64_t seed, DesignStream stream,
                           std::uint64_t pass);

std::string serializeGrid(const ena::DseGrid &g);

CellsInput makeCellsInput(std::uint64_t seed, std::uint64_t pass);

// ---- server_mix ----------------------------------------------------

enum class MixOp
{
    EvalNode,
    Sweep,
    ClusterEval,
    ResilientEval,
    TaskGraphEval,
    Table2,
};

const char *mixOpName(MixOp op);
const std::vector<MixOp> &allMixOps();

/** Share of each op in the request stream, per million requests. */
struct MixShares
{
    std::uint32_t perMillion[6];
};

/** The stated mix (see perfbench/README.md for the reasoning). */
const MixShares &serverMixShares();

/** Hot-set size and the chance an eval_node draws from it. */
constexpr int kHotSetSize = 64;
constexpr double kHotShare = 0.5;
/** Points of every sweep request. */
constexpr int kSweepPoints = 48;

/** One server request, as a pure function of (seed, index). */
struct MixRequest
{
    MixOp op = MixOp::EvalNode;
    std::string app;       ///< eval_node / sweep / cluster / resilient
    std::string config;    ///< config text
    std::string axis;      ///< sweep
    double from = 0.0, to = 0.0, step = 0.0;   ///< sweep
    std::string scheduler; ///< taskgraph_eval
    double budgetW = 0.0;  ///< table2
    bool hot = false;      ///< eval_node drawn from the hot set

    /** Op parameters, as ServerClient::call takes them. */
    ena::wire::JsonValue params() const;
    /** The whole request as one protocol line. */
    std::string line(std::uint64_t id) const;
    /** Content key: equal for requests with equal parameters. */
    std::uint64_t key() const;
};

MixRequest makeMixRequest(std::uint64_t seed, std::uint64_t index);

/** The eval_node / sweep node config of a request, parsed back. */
ena::NodeConfig mixNodeConfig(const MixRequest &r);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_INPUTS_HH
