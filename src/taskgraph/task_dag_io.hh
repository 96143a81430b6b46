/**
 * @file
 * Config-file bindings for the task-graph layer, mirroring
 * cluster_config_io.hh: the workload is described under the
 * "taskgraph." prefix so one file can hold the full scenario (ehp.* /
 * extmem.* for the node, cluster.* for the fabric, taskgraph.* for the
 * DAG) and be loaded by each layer's reader. bindFields() below is
 * the list of recognized keys (all optional; defaults =
 * TaskGraphSpec{}, whose members document each knob).
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
#include "util/config_fields.hh"
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
    DagShape shape = DagShape::Wavefront;  ///< generator (dagShapeName)
    App app = App::MaxFlops;   ///< kernel profile: memory behaviour
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

/** The workload's config keys, one (key, member) pair per field. */
template <class F>
void
bindFields(TaskGraphSpec &s, F &&f)
{
    f("taskgraph.shape", s.shape);
    f("taskgraph.app", s.app);
    f("taskgraph.size", s.size);
    f("taskgraph.depth", s.depth);
    f("taskgraph.task_gflops", s.taskGflops);
    f("taskgraph.edge_mb", s.edgeMb);
    f("taskgraph.edge_prob", s.edgeProb);
    f("taskgraph.seed", s.seed);
    f("taskgraph.fanin", s.fanin);
}

inline Expected<TaskGraphSpec>
tryTaskGraphSpecFromConfig(const Config &cfg)
{
    return tryFieldsFromConfig<TaskGraphSpec>(cfg, "taskgraph-config",
                                              "taskgraph.");
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
    return fieldsToConfig(s);
}

} // namespace ena

#endif // ENA_TASKGRAPH_TASK_DAG_IO_HH
