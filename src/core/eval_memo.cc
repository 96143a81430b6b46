#include "core/eval_memo.hh"

#include <algorithm>

#include "telemetry/metrics.hh"

namespace ena {

namespace {

telemetry::Counter &
hitsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "dse.memo_hits", "node evaluations served from the memo cache");
    return c;
}

telemetry::Counter &
missesCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "dse.memo_misses", "memo-cache lookups that had to recompute");
    return c;
}

telemetry::Counter &
evictionsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "dse.memo_evictions", "memo-cache shards cleared at capacity");
    return c;
}

} // anonymous namespace

int
powerOptBits(const PowerOptConfig &o)
{
    return (o.ntc << 0) | (o.asyncCu << 1) | (o.asyncRouter << 2) |
           (o.lpLinks << 3) | (o.compression << 4);
}

PerfMemoKey
perfMemoKey(App app, int cus, double freq_ghz, double bw_tbs)
{
    PerfMemoKey k;
    k.app = static_cast<std::int32_t>(app);
    k.cus = cus;
    k.freqBits = bitsOf(freq_ghz);
    k.bwBits = bitsOf(bw_tbs);
    return k;
}

PowerMemoKey
powerMemoKey(App app, const NodeConfig &cfg)
{
    PowerMemoKey k;
    k.app = static_cast<std::int32_t>(app);
    k.cus = cfg.cus;
    k.freqBits = bitsOf(cfg.freqGhz);
    k.bwBits = bitsOf(cfg.bwTbs);
    k.optsBits = powerOptBits(cfg.opts);
    k.gpuChiplets = cfg.gpuChiplets;
    k.extDramGbBits = bitsOf(cfg.ext.dramGb);
    k.extNvmGbBits = bitsOf(cfg.ext.nvmGb);
    k.extDramModuleGbBits = bitsOf(cfg.ext.dramModuleGb);
    k.extNvmModuleGbBits = bitsOf(cfg.ext.nvmModuleGb);
    k.extInterfaces = cfg.ext.interfaces;
    k.extInterfaceGbsBits = bitsOf(cfg.ext.interfaceGbs);
    return k;
}

std::size_t
PerfMemoKeyHash::operator()(const PerfMemoKey &k) const
{
    std::uint64_t h = memoMix(static_cast<std::uint64_t>(k.app) << 32 |
                              static_cast<std::uint32_t>(k.cus));
    h = memoHash(h, k.freqBits);
    h = memoHash(h, k.bwBits);
    return static_cast<std::size_t>(h);
}

std::size_t
PowerMemoKeyHash::operator()(const PowerMemoKey &k) const
{
    std::uint64_t h = memoMix(static_cast<std::uint64_t>(k.app) << 32 |
                              static_cast<std::uint32_t>(k.cus));
    h = memoHash(h, k.freqBits);
    h = memoHash(h, k.bwBits);
    h = memoHash(h, static_cast<std::uint64_t>(k.optsBits) << 32 |
                        static_cast<std::uint32_t>(k.gpuChiplets));
    h = memoHash(h, k.extDramGbBits);
    h = memoHash(h, k.extNvmGbBits);
    h = memoHash(h, k.extDramModuleGbBits);
    h = memoHash(h, k.extNvmModuleGbBits);
    h = memoHash(h, static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(k.extInterfaces)));
    h = memoHash(h, k.extInterfaceGbsBits);
    return static_cast<std::size_t>(h);
}

EvalMemoCache::EvalMemoCache(std::size_t max_entries)
    : perShardCap_(std::max<std::size_t>(1, max_entries / kShards))
{
}

EvalMemoCache &
EvalMemoCache::sharedInstance()
{
    // Leaked on purpose: server worker threads may still be draining
    // requests while static destructors run; a cache with no destructor
    // scheduled cannot be used after free. Default capacity, so shard
    // eviction bounds a long-running server's memory.
    static EvalMemoCache *cache = new EvalMemoCache();
    return *cache;
}

template <typename K, typename V, typename H>
bool
EvalMemoCache::find(const Shard<K, V, H> *shards, const K &key,
                    V *out) const
{
    const Shard<K, V, H> &s = shards[H{}(key) % kShards];
    {
        std::lock_guard<std::mutex> lock(s.mu);
        auto it = s.map.find(key);
        if (it != s.map.end()) {
            *out = it->second;
            hits_.fetch_add(1, std::memory_order_relaxed);
            hitsCounter().add();
            return true;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    missesCounter().add();
    return false;
}

template <typename K, typename V, typename H>
void
EvalMemoCache::store(Shard<K, V, H> *shards, const K &key, const V &v)
{
    Shard<K, V, H> &s = shards[H{}(key) % kShards];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.map.size() >= perShardCap_ && !s.map.contains(key)) {
        // Whole-shard epoch eviction: recomputation returns the same
        // bits, so dropping entries can never change results.
        s.map.clear();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        evictionsCounter().add();
    }
    s.map.emplace(key, v);
}

bool
EvalMemoCache::findPerf(const PerfMemoKey &k, PerfResult *out) const
{
    return find(perf_, k, out);
}

void
EvalMemoCache::storePerf(const PerfMemoKey &k, const PerfResult &v)
{
    store(perf_, k, v);
}

bool
EvalMemoCache::findPower(const PowerMemoKey &k, PowerBreakdown *out) const
{
    return find(power_, k, out);
}

void
EvalMemoCache::storePower(const PowerMemoKey &k, const PowerBreakdown &v)
{
    store(power_, k, v);
}

std::size_t
EvalMemoCache::size() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
        {
            std::lock_guard<std::mutex> lock(perf_[i].mu);
            n += perf_[i].map.size();
        }
        {
            std::lock_guard<std::mutex> lock(power_[i].mu);
            n += power_[i].map.size();
        }
    }
    return n;
}

void
EvalMemoCache::clear()
{
    for (std::size_t i = 0; i < kShards; ++i) {
        {
            std::lock_guard<std::mutex> lock(perf_[i].mu);
            perf_[i].map.clear();
        }
        {
            std::lock_guard<std::mutex> lock(power_[i].mu);
            power_[i].map.clear();
        }
    }
}

} // namespace ena
