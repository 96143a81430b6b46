#include "taskgraph/task_dag.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

const EnumNames<DagShape> &
enumNames(DagShape)
{
    static const EnumNames<DagShape> names(
        "DAG shape",
        {{DagShape::Wavefront, "wavefront", {"sweep"}},
         {DagShape::StencilHalo, "stencil-halo", {"stencil", "halo"}},
         {DagShape::ForkJoin, "fork-join", {"forkjoin", "fork_join"}},
         {DagShape::ReductionTree, "reduction-tree",
          {"reduction", "tree"}},
         {DagShape::RandomLayered, "random-layered",
          {"random", "random_layered"}}});
    return names;
}

TaskId
TaskDag::addTask(double flops, App app, std::vector<DagEdge> deps)
{
    DagTask t;
    t.id = static_cast<TaskId>(tasks_.size());
    t.flops = flops;
    t.app = app;
    for (const DagEdge &d : deps) {
        ENA_ASSERT(d.task < t.id, "dependency ", d.task,
                   " does not precede task ", t.id,
                   " (insert in topological order)");
        t.layer = std::max(t.layer, tasks_[d.task].layer + 1);
        succs_[d.task].push_back({t.id, d.bytes});
    }
    edges_ += deps.size();
    t.deps = std::move(deps);
    tasks_.push_back(std::move(t));
    succs_.emplace_back();
    return tasks_.back().id;
}

const DagTask &
TaskDag::task(TaskId id) const
{
    ENA_ASSERT(id < tasks_.size(), "bad task id ", id);
    return tasks_[id];
}

const std::vector<DagEdge> &
TaskDag::succs(TaskId id) const
{
    ENA_ASSERT(id < succs_.size(), "bad task id ", id);
    return succs_[id];
}

double
TaskDag::totalFlops() const
{
    double sum = 0.0;
    for (const DagTask &t : tasks_)
        sum += t.flops;
    return sum;
}

double
TaskDag::totalEdgeBytes() const
{
    double sum = 0.0;
    for (const DagTask &t : tasks_) {
        for (const DagEdge &d : t.deps)
            sum += d.bytes;
    }
    return sum;
}

int
TaskDag::depth() const
{
    int deepest = -1;
    for (const DagTask &t : tasks_)
        deepest = std::max(deepest, t.layer);
    return deepest + 1;
}

std::size_t
TaskDag::maxLayerWidth() const
{
    std::vector<std::size_t> widths(static_cast<std::size_t>(depth()), 0);
    for (const DagTask &t : tasks_)
        ++widths[static_cast<std::size_t>(t.layer)];
    std::size_t widest = 0;
    for (std::size_t w : widths)
        widest = std::max(widest, w);
    return widest;
}

Status
TaskDag::tryValidate() const
{
    if (tasks_.empty())
        return Status::failedPrecondition("TaskDag '", name_,
                                          "': empty task graph");
    for (const DagTask &t : tasks_) {
        if (!(t.flops > 0.0) || !std::isfinite(t.flops)) {
            return Status::outOfRange("TaskDag '", name_, "': task ",
                                      t.id, " has bad flops ", t.flops);
        }
        for (const DagEdge &d : t.deps) {
            if (d.bytes < 0.0 || !std::isfinite(d.bytes)) {
                return Status::outOfRange(
                    "TaskDag '", name_, "': edge ", d.task, " -> ", t.id,
                    " has bad byte count ", d.bytes);
            }
        }
    }
    return Status();
}

std::string
TaskDag::label() const
{
    return strformat("%s (%zu tasks, %zu edges)", name_.c_str(),
                     tasks_.size(), edges_);
}

TaskDag
TaskDag::wavefront(int n, double task_flops, double edge_bytes, App app)
{
    ENA_ASSERT(n > 0, "wavefront needs a positive grid size, got ", n);
    TaskDag dag(strformat("wavefront n=%d", n));
    std::vector<TaskId> grid(static_cast<std::size_t>(n) * n);
    const std::size_t w = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
            std::vector<DagEdge> deps;
            if (i > 0)
                deps.push_back({grid[(i - 1) * w + j], edge_bytes});
            if (j > 0)
                deps.push_back({grid[i * w + (j - 1)], edge_bytes});
            grid[i * w + j] =
                dag.addTask(task_flops, app, std::move(deps));
        }
    }
    return dag;
}

TaskDag
TaskDag::stencilHalo(int ranks, int steps, double task_flops,
                     double edge_bytes, App app)
{
    ENA_ASSERT(ranks > 0 && steps > 0,
               "stencil needs positive ranks and steps, got ", ranks,
               " x ", steps);
    TaskDag dag(strformat("stencil-halo %dx%d", ranks, steps));
    std::vector<TaskId> prev(ranks), cur(ranks);
    for (int s = 0; s < steps; ++s) {
        for (int r = 0; r < ranks; ++r) {
            std::vector<DagEdge> deps;
            if (s > 0) {
                // A rank's next step needs its own state plus the halo
                // surfaces of both neighbors.
                deps.push_back({prev[r], edge_bytes});
                if (r > 0)
                    deps.push_back({prev[r - 1], edge_bytes});
                if (r + 1 < ranks)
                    deps.push_back({prev[r + 1], edge_bytes});
            }
            cur[r] = dag.addTask(task_flops, app, std::move(deps));
        }
        std::swap(prev, cur);
    }
    return dag;
}

TaskDag
TaskDag::forkJoin(int width, int stages, double task_flops,
                  double edge_bytes, App app)
{
    ENA_ASSERT(width > 0 && stages > 0,
               "fork-join needs positive width and stages, got ", width,
               " x ", stages);
    TaskDag dag(strformat("fork-join %dx%d", width, stages));
    TaskId join = dag.addTask(task_flops, app);
    for (int s = 0; s < stages; ++s) {
        std::vector<TaskId> stage(width);
        for (int w = 0; w < width; ++w)
            stage[w] = dag.addTask(task_flops, app, {{join, edge_bytes}});
        std::vector<DagEdge> deps;
        for (TaskId t : stage)
            deps.push_back({t, edge_bytes});
        join = dag.addTask(task_flops, app, std::move(deps));
    }
    return dag;
}

TaskDag
TaskDag::reductionTree(int leaves, int fanin, double task_flops,
                       double edge_bytes, App app)
{
    ENA_ASSERT(leaves > 0, "reduction needs positive leaves, got ",
               leaves);
    ENA_ASSERT(fanin > 1, "reduction needs fan-in > 1, got ", fanin);
    TaskDag dag(strformat("reduction-tree %d/%d", leaves, fanin));
    std::vector<TaskId> level(leaves);
    for (int l = 0; l < leaves; ++l)
        level[l] = dag.addTask(task_flops, app);
    while (level.size() > 1) {
        std::vector<TaskId> next;
        for (std::size_t lo = 0; lo < level.size();
             lo += static_cast<std::size_t>(fanin)) {
            std::vector<DagEdge> deps;
            const std::size_t hi = std::min(
                level.size(), lo + static_cast<std::size_t>(fanin));
            for (std::size_t i = lo; i < hi; ++i)
                deps.push_back({level[i], edge_bytes});
            next.push_back(dag.addTask(task_flops, app, std::move(deps)));
        }
        level = std::move(next);
    }
    return dag;
}

namespace {

/** SplitMix64 of (seed, src, dst): the edge-existence coin flip. */
double
edgeHash(std::uint64_t seed, std::uint64_t src, std::uint64_t dst)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (src * 2654435761ull +
                                                      dst + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

} // anonymous namespace

TaskDag
TaskDag::randomLayered(int layers, int width, double edge_prob,
                       std::uint64_t seed, double task_flops,
                       double edge_bytes, App app)
{
    ENA_ASSERT(layers > 0 && width > 0,
               "random-layered needs positive layers and width, got ",
               layers, " x ", width);
    ENA_ASSERT(edge_prob >= 0.0 && edge_prob <= 1.0,
               "edge probability must be in [0, 1], got ", edge_prob);
    TaskDag dag(strformat("random-layered %dx%d p=%.2f seed=%llu",
                          layers, width, edge_prob,
                          static_cast<unsigned long long>(seed)));
    std::vector<TaskId> prev(width), cur(width);
    for (int l = 0; l < layers; ++l) {
        for (int w = 0; w < width; ++w) {
            std::vector<DagEdge> deps;
            if (l > 0) {
                const std::uint64_t dst =
                    static_cast<std::uint64_t>(l) * width + w;
                for (int p = 0; p < width; ++p) {
                    if (edgeHash(seed, prev[p], dst) < edge_prob)
                        deps.push_back({prev[p], edge_bytes});
                }
                // No spurious roots: every non-entry task keeps at
                // least its same-column predecessor.
                if (deps.empty())
                    deps.push_back({prev[w], edge_bytes});
            }
            cur[w] = dag.addTask(task_flops, app, std::move(deps));
        }
        std::swap(prev, cur);
    }
    return dag;
}

} // namespace ena
