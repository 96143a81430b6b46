/**
 * @file
 * Config-file bindings for the task-graph layer, mirroring
 * cluster_config_io.hh: the workload is described under the
 * "taskgraph." prefix so one file can hold the full scenario (ehp.* /
 * extmem.* for the node, cluster.* for the fabric, taskgraph.* for the
 * DAG) and be loaded by each layer's reader.
 *
 * Recognized keys (all optional; defaults = TaskGraphSpec{}):
 *
 *   taskgraph.shape  (wavefront | stencil-halo | fork-join |
 *                     reduction-tree | random-layered)
 *   taskgraph.app            kernel profile naming memory behaviour
 *   taskgraph.size           grid n / ranks / width / leaves
 *   taskgraph.depth          steps / stages / layers
 *   taskgraph.task_gflops    work per task (1e9 flops)
 *   taskgraph.edge_mb        bytes per edge (1e6 bytes)
 *   taskgraph.edge_prob      random-layered edge probability
 *   taskgraph.seed           random-layered seed
 *   taskgraph.fanin          reduction-tree fan-in
 *
 * Unknown "taskgraph." keys are rejected to catch typos; keys outside
 * the prefix are ignored (they belong to the node/cluster layers).
 *
 * tryTaskGraphSpecFromConfig is the recoverable entry point (errors
 * carry the offending key and its source:line origin);
 * taskGraphSpecFromConfig is the legacy fatal() wrapper.
 */

#ifndef ENA_TASKGRAPH_TASK_DAG_IO_HH
#define ENA_TASKGRAPH_TASK_DAG_IO_HH

#include <cmath>
#include <cstdint>

#include "taskgraph/task_dag.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace ena {

/**
 * A generator recipe for a TaskDag: which shape, how big, and how much
 * work/communication each task and edge carries. This is the form the
 * config file, the explorer CLI, and the server's taskgraph_eval op all
 * share; build() turns it into the concrete DAG.
 */
struct TaskGraphSpec
{
    DagShape shape = DagShape::Wavefront;
    App app = App::MaxFlops;
    int size = 16;             ///< grid n / ranks / width / leaves
    int depth = 8;             ///< steps / stages / layers
    double taskGflops = 64.0;  ///< work per task, in Gflops
    double edgeMb = 16.0;      ///< bytes per edge, in MB
    double edgeProb = 0.35;    ///< random-layered edge probability
    std::uint64_t seed = 1;    ///< random-layered seed
    int fanin = 2;             ///< reduction-tree fan-in

    Status tryValidate() const
    {
        if (size <= 0)
            return Status::outOfRange("taskgraph.size must be positive, got ",
                                      size);
        if (depth <= 0)
            return Status::outOfRange(
                "taskgraph.depth must be positive, got ", depth);
        if (!(taskGflops > 0.0) || !std::isfinite(taskGflops)) {
            return Status::outOfRange(
                "taskgraph.task_gflops must be positive and finite, got ",
                taskGflops);
        }
        if (edgeMb < 0.0 || !std::isfinite(edgeMb)) {
            return Status::outOfRange(
                "taskgraph.edge_mb must be non-negative and finite, got ",
                edgeMb);
        }
        if (!(edgeProb >= 0.0 && edgeProb <= 1.0)) {
            return Status::outOfRange(
                "taskgraph.edge_prob must be in [0, 1], got ", edgeProb);
        }
        if (fanin < 2)
            return Status::outOfRange("taskgraph.fanin must be >= 2, got ",
                                      fanin);
        // Bounded so no request can ask build() for unbounded memory
        // and time; random-layered also flips width^2 coins per layer.
        const long long tasks = taskCount();
        if (tasks > maxTasks) {
            return Status::outOfRange("taskgraph: ", dagShapeName(shape),
                                      " has ", tasks, " tasks (at most ",
                                      maxTasks, ")");
        }
        if (shape == DagShape::RandomLayered &&
            (depth - 1LL) * size * size > maxTasks) {
            return Status::outOfRange(
                "taskgraph: random-layered ", size, " wide x ", depth,
                " layers has over ", maxTasks, " candidate edges");
        }
        return Status();
    }

    /** Cap on tasks, and on random-layered candidate edges. */
    static constexpr long long maxTasks = 1000000;

    /** Tasks build() creates, in 64-bit arithmetic (wavefront: n^2). */
    long long
    taskCount() const
    {
        const long long n = size, d = depth;
        switch (shape) {
          case DagShape::Wavefront:
            return n * n;
          case DagShape::StencilHalo:
          case DagShape::RandomLayered:
            return n * d;
          case DagShape::ForkJoin:
            return 1 + d * (n + 1);
          case DagShape::ReductionTree:
            break;
        }
        long long level = n, total = n;
        while (level > 1) {
            level = (level + fanin - 1) / fanin;
            total += level;
        }
        return total;
    }

    /** Instantiate the DAG this spec describes. */
    TaskDag build() const
    {
        const double flops = taskGflops * 1e9;
        const double bytes = edgeMb * 1e6;
        switch (shape) {
          case DagShape::Wavefront:
            return TaskDag::wavefront(size, flops, bytes, app);
          case DagShape::StencilHalo:
            return TaskDag::stencilHalo(size, depth, flops, bytes, app);
          case DagShape::ForkJoin:
            return TaskDag::forkJoin(size, depth, flops, bytes, app);
          case DagShape::ReductionTree:
            return TaskDag::reductionTree(size, fanin, flops, bytes, app);
          case DagShape::RandomLayered:
            return TaskDag::randomLayered(depth, size, edgeProb, seed,
                                          flops, bytes, app);
        }
        ENA_FATAL("unknown DagShape ", static_cast<int>(shape));
    }
};

inline Expected<TaskGraphSpec>
tryTaskGraphSpecFromConfig(const Config &cfg)
{
    static const char *known[] = {
        "taskgraph.shape",      "taskgraph.app",
        "taskgraph.size",       "taskgraph.depth",
        "taskgraph.task_gflops", "taskgraph.edge_mb",
        "taskgraph.edge_prob",  "taskgraph.seed",
        "taskgraph.fanin",
    };
    for (const std::string &key : cfg.keysWithPrefix("taskgraph.")) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok) {
            std::string where = cfg.origin(key);
            return Status::invalidArgument(
                "unknown taskgraph-config key '", key, "'",
                where.empty() ? "" : " (" + where + ")");
        }
    }

    TaskGraphSpec s;
    ENA_ASSIGN_OR_RETURN(
        std::string shape,
        cfg.tryGetString("taskgraph.shape", dagShapeName(s.shape)));
    ENA_ASSIGN_OR_RETURN(s.shape, tryDagShapeFromName(shape));
    ENA_ASSIGN_OR_RETURN(std::string app,
                         cfg.tryGetString("taskgraph.app", appName(s.app)));
    ENA_ASSIGN_OR_RETURN(s.app, tryAppFromName(app));
    ENA_ASSIGN_OR_RETURN(long long size,
                         cfg.tryGetInt("taskgraph.size", s.size));
    s.size = static_cast<int>(size);
    ENA_ASSIGN_OR_RETURN(long long depth,
                         cfg.tryGetInt("taskgraph.depth", s.depth));
    s.depth = static_cast<int>(depth);
    ENA_ASSIGN_OR_RETURN(
        s.taskGflops,
        cfg.tryGetDouble("taskgraph.task_gflops", s.taskGflops));
    ENA_ASSIGN_OR_RETURN(s.edgeMb,
                         cfg.tryGetDouble("taskgraph.edge_mb", s.edgeMb));
    ENA_ASSIGN_OR_RETURN(
        s.edgeProb, cfg.tryGetDouble("taskgraph.edge_prob", s.edgeProb));
    ENA_ASSIGN_OR_RETURN(
        long long seed,
        cfg.tryGetInt("taskgraph.seed",
                      static_cast<long long>(s.seed)));
    s.seed = static_cast<std::uint64_t>(seed);
    ENA_ASSIGN_OR_RETURN(long long fanin,
                         cfg.tryGetInt("taskgraph.fanin", s.fanin));
    s.fanin = static_cast<int>(fanin);

    ENA_TRY(s.tryValidate());
    return s;
}

/** Legacy flavor: fatal() with the chained diagnostic on any error. */
inline TaskGraphSpec
taskGraphSpecFromConfig(const Config &cfg)
{
    return unwrapOrFatal(tryTaskGraphSpecFromConfig(cfg).withContext(
        "loading taskgraph config"));
}

/** Serialize a TaskGraphSpec back into a Config ("taskgraph." keys). */
inline Config
taskGraphSpecToConfig(const TaskGraphSpec &s)
{
    Config cfg;
    cfg.set("taskgraph.shape", dagShapeName(s.shape));
    cfg.set("taskgraph.app", appName(s.app));
    cfg.set("taskgraph.size", s.size);
    cfg.set("taskgraph.depth", s.depth);
    cfg.set("taskgraph.task_gflops", s.taskGflops);
    cfg.set("taskgraph.edge_mb", s.edgeMb);
    cfg.set("taskgraph.edge_prob", s.edgeProb);
    cfg.set("taskgraph.seed", static_cast<long long>(s.seed));
    cfg.set("taskgraph.fanin", s.fanin);
    return cfg;
}

} // namespace ena

#endif // ENA_TASKGRAPH_TASK_DAG_IO_HH
