/**
 * @file
 * Sweep-level memoization of node evaluations, content-addressed by
 * the exact subset of NodeConfig fields each model actually reads.
 *
 * The performance model reads only (cus, freqGhz, bwTbs) plus the
 * kernel profile, so a PerfResult computed for one power-opt setting
 * is reusable for every other one — this is what lets tableII's
 * with-optimizations search reuse the no-opt search's perf work. The
 * power model additionally reads the opt toggles, the GPU chiplet
 * count, and the external-memory configuration; its results are keyed
 * separately. Both keys store the *raw bit patterns* of every input
 * field and compare them exactly (the hash only picks the bucket), so
 * a cache hit returns the precise doubles recomputation would produce:
 * serving from this cache is bit-identical by construction.
 *
 * Thread safety: the cache is sharded by key hash with one mutex per
 * shard, so concurrent ThreadPool tasks share it safely.
 * Eviction clears a whole shard when it reaches its capacity slice —
 * crude, but correctness-neutral (a miss just recomputes the same
 * bits) and free of bookkeeping on the hit path.
 *
 * Hit/miss/eviction totals feed the dse.memo_hits / dse.memo_misses /
 * dse.memo_evictions telemetry counters.
 */

#ifndef ENA_CORE_EVAL_MEMO_HH
#define ENA_CORE_EVAL_MEMO_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/node_config.hh"
#include "core/perf_model.hh"
#include "power/node_power.hh"
#include "util/memo.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** Content address of a PerfResult: what PerfModel::evaluate reads. */
struct PerfMemoKey
{
    std::int32_t app = 0;
    std::int32_t cus = 0;
    std::uint64_t freqBits = 0;
    std::uint64_t bwBits = 0;

    bool operator==(const PerfMemoKey &o) const = default;
};

/**
 * Content address of a PowerBreakdown: what NodePowerModel::evaluate
 * reads. The activity vector is not part of the key because it is a
 * pure function of (app, cus, freqGhz, bwTbs), which are.
 */
struct PowerMemoKey
{
    std::int32_t app = 0;
    std::int32_t cus = 0;
    std::uint64_t freqBits = 0;
    std::uint64_t bwBits = 0;
    std::int32_t optsBits = 0;
    std::int32_t gpuChiplets = 0;
    std::uint64_t extDramGbBits = 0;
    std::uint64_t extNvmGbBits = 0;
    std::uint64_t extDramModuleGbBits = 0;
    std::uint64_t extNvmModuleGbBits = 0;
    std::int32_t extInterfaces = 0;
    std::uint64_t extInterfaceGbsBits = 0;

    bool operator==(const PowerMemoKey &o) const = default;
};

/** Stable bitmask of the five power-opt toggles. */
int powerOptBits(const PowerOptConfig &o);

PerfMemoKey perfMemoKey(App app, int cus, double freq_ghz, double bw_tbs);
PowerMemoKey powerMemoKey(App app, const NodeConfig &cfg);

struct PerfMemoKeyHash
{
    std::size_t operator()(const PerfMemoKey &k) const;
};

struct PowerMemoKeyHash
{
    std::size_t operator()(const PowerMemoKey &k) const;
};

/**
 * Thread safety: every member is safe to call concurrently — lookups
 * and stores lock only the shard owning the key, and the counters are
 * atomics. Distinct threads (ThreadPool workers, server worker
 * threads, concurrent clients' requests) may share one cache with no
 * external locking; the worst case for racing stores of the same key
 * is writing the same bits twice.
 */
class EvalMemoCache
{
  public:
    /** @param max_entries capacity per result kind (perf and power). */
    explicit EvalMemoCache(std::size_t max_entries = 1u << 16);

    /**
     * The process-wide cache behind the evaluation server's eval_node
     * and sweep ops (cross-tenant dedup: identical grid points from
     * any client evaluate once). Initialization is race-free (C++ magic
     * static) and the instance is intentionally leaked so worker
     * threads draining after main() returns never touch a destroyed
     * cache.
     */
    static EvalMemoCache &sharedInstance();

    bool findPerf(const PerfMemoKey &k, PerfResult *out) const;
    void storePerf(const PerfMemoKey &k, const PerfResult &v);

    bool findPower(const PowerMemoKey &k, PowerBreakdown *out) const;
    void storePower(const PowerMemoKey &k, const PowerBreakdown &v);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }

    /** Cached entries across both kinds (approximate under writers). */
    std::size_t size() const;

    void clear();

  private:
    static constexpr std::size_t kShards = 16;

    template <typename K, typename V, typename H>
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<K, V, H> map;
    };

    template <typename K, typename V, typename H>
    bool find(const Shard<K, V, H> *shards, const K &key, V *out) const;
    template <typename K, typename V, typename H>
    void store(Shard<K, V, H> *shards, const K &key, const V &v);

    Shard<PerfMemoKey, PerfResult, PerfMemoKeyHash> perf_[kShards];
    Shard<PowerMemoKey, PowerBreakdown, PowerMemoKeyHash> power_[kShards];
    std::size_t perShardCap_;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace ena

#endif // ENA_CORE_EVAL_MEMO_HH
