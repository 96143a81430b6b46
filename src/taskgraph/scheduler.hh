/**
 * @file
 * DAG schedulers: map a TaskDag onto N identical ENA nodes and predict
 * the schedule's makespan. The machine description comes from the
 * layers below — per-task compute time from NodeEvaluator achieved
 * flops, cross-node edge transfer time from InterNodeNetwork delivered
 * bandwidth and per-hop latency — so the schedulers study *placement*,
 * not hardware, on exactly the model the cluster layer already trusts.
 *
 * Three policies:
 *  - critical-path: HEFT-style list scheduling by upward rank (task
 *    time + heaviest downstream chain), each task placed on the node
 *    with the earliest finish time;
 *  - min-min: repeatedly schedule the ready task whose best-node
 *    finish time is smallest (greedy, locally optimal);
 *  - round-robin: tasks dealt to nodes by id — the baseline any real
 *    scheduler must beat.
 *
 * Exact-reduction discipline (the repo's zero-comm gate): when every
 * edge carries zero bytes, edge cost is exactly 0.0, and with at least
 * as many nodes as tasks every scheduler's makespan equals
 * criticalPathSeconds() bit-for-bit (gated by bench_taskgraph).
 *
 * Determinism: all tie-breaks resolve to the lowest task id / lowest
 * node index, priority sorts are stable, and nothing depends on
 * iteration timing, so a schedule is a pure function of
 * (dag, cost model, policy, node count).
 */

#ifndef ENA_TASKGRAPH_SCHEDULER_HH
#define ENA_TASKGRAPH_SCHEDULER_HH

#include <string>
#include <vector>

#include "cluster/internode_network.hh"
#include "common/node_config.hh"
#include "core/node_evaluator.hh"
#include "taskgraph/task_dag.hh"
#include "util/status.hh"

namespace ena {


/** The scheduling policies. */
enum class DagScheduler
{
    CriticalPath,  ///< HEFT-style upward-rank list scheduling
    MinMin,        ///< greedy smallest-finish-time-first
    RoundRobin,    ///< node = task id mod N baseline
};

/** Names "critical-path" / "min-min" / "round-robin", with aliases. */
const EnumNames<DagScheduler> &enumNames(DagScheduler);

inline std::string
dagSchedulerName(DagScheduler s)
{
    return std::string(enumNames(s).name(s));
}

/** Parse a scheduler name or alias (case-insensitive). */
inline Expected<DagScheduler>
tryDagSchedulerFromName(const std::string &name)
{
    return enumNames(DagScheduler{}).tryParse(name);
}

/** All schedulers, in enum order. */
inline const std::vector<DagScheduler> &
allDagSchedulers()
{
    return enumNames(DagScheduler{}).all();
}

/**
 * Everything the schedulers need to price a schedule: seconds per task
 * and the cross-node edge cost parameters. Built once per (dag, node
 * config, network) and shared by every policy so comparisons differ
 * only in placement.
 */
struct DagCostModel
{
    /** Execution seconds of task i on one node (flops / achieved). */
    std::vector<double> taskSeconds;

    /** Cross-node edge bandwidth (bytes/s; halo-pattern delivered). */
    double edgeBandwidthBps = 0.0;

    /** Cross-node edge latency (s; average-hop one-way). */
    double edgeLatencySeconds = 0.0;

    /**
     * Seconds to move @p bytes between two distinct nodes. Exactly 0.0
     * for a zero-byte edge — the latency term must not leak into the
     * zero-comm reduction.
     */
    double
    edgeSeconds(double bytes) const
    {
        if (bytes == 0.0)
            return 0.0;
        return bytes / edgeBandwidthBps + edgeLatencySeconds;
    }

    /** Sum of all task seconds: the one-node serial run time. */
    double totalTaskSeconds() const;

    /**
     * Price @p dag on the machine: task time from the evaluator's
     * achieved flops for each task's app on @p cfg, edge parameters
     * from the network's halo-pattern delivered bandwidth and
     * average-hop latency. The node is evaluated once per distinct
     * app, not per task.
     */
    static DagCostModel build(const TaskDag &dag,
                              const NodeEvaluator &eval,
                              const NodeConfig &cfg,
                              const InterNodeNetwork &net);
};

/** Where and when one task runs. */
struct TaskPlacement
{
    int node = 0;
    double startSeconds = 0.0;
    double finishSeconds = 0.0;
};

/** One policy's complete answer for one DAG on one machine. */
struct Schedule
{
    DagScheduler scheduler = DagScheduler::CriticalPath;
    int nodes = 0;                        ///< machine size scheduled onto
    std::vector<TaskPlacement> placements; ///< indexed by TaskId

    double makespanSeconds = 0.0;
    double totalCompSeconds = 0.0;  ///< sum of task times (work)
    double totalCommSeconds = 0.0;  ///< sum of charged cross-node edges
    std::size_t edgesCosted = 0;    ///< cross-node edges charged

    /** Busy fraction of the machine: work / (nodes x makespan). */
    double
    utilization() const
    {
        const double cap = static_cast<double>(nodes) * makespanSeconds;
        return cap > 0.0 ? totalCompSeconds / cap : 0.0;
    }

    /** Speedup over the one-node serial run. */
    double
    speedup() const
    {
        return makespanSeconds > 0.0 ? totalCompSeconds / makespanSeconds
                                     : 0.0;
    }

    /** Parallel efficiency: speedup / nodes. */
    double
    efficiency() const
    {
        return nodes > 0 ? speedup() / static_cast<double>(nodes) : 0.0;
    }
};

/**
 * The heaviest path through the DAG, counting every edge as a
 * cross-node transfer (a scheduler that co-places a chain can beat it;
 * one that serializes independent tasks falls behind it). With zero
 * edge bytes it is the pure compute critical path — the analytic lower
 * bound — and every scheduler given nodes >= dag.size() must reproduce
 * it bit-identically.
 */
double criticalPathSeconds(const TaskDag &dag, const DagCostModel &cost);

/**
 * Schedule @p dag onto @p nodes identical nodes under @p policy.
 * Deterministic: a pure function of its arguments at any thread count.
 */
Schedule scheduleDag(const TaskDag &dag, const DagCostModel &cost,
                     DagScheduler policy, int nodes);

} // namespace ena

#endif // ENA_TASKGRAPH_SCHEDULER_HH
