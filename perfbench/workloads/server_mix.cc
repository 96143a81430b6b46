/**
 * @file
 * server_mix: an in-process EvalServer on a Unix socket in the work
 * dir, with 2 workers, driven by 2 closed-loop ServerClient
 * connections (each waits for its reply before sending again, as
 * ena-client and sweep_tool --server do). The request stream is a
 * seeded mix: mostly eval_node, half of them drawn from a hot set so a
 * stated share of inputs repeats, plus sweep, cluster_eval,
 * resilient_eval, taskgraph_eval and table2. The op shares keep p50
 * inside eval_node's latency mode and p99 inside sweep's (see
 * perfbench/README.md).
 *
 * End-to-end: op_ms, the median client-side send-to-reply latency
 * over every request of the run. Also printed: req_per_s,
 * latency_p50_ms, latency_p99_ms.
 * Checks, outside the latency timing: error replies and transport
 * failures are failed operations; sampled eval_node and sweep results
 * are bit-identical to in-process evaluation.
 */

#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>
#include <unordered_set>

#include "core/eval_memo.hh"
#include "core/node_evaluator.hh"
#include "harness/inputs.hh"
#include "server/client.hh"
#include "server/eval_service.hh"
#include "server/server.hh"
#include "server/wire.hh"
#include "util/string_utils.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using namespace ena;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
/** Every n-th eval_node / sweep reply is kept for the bitwise check,
 *  up to a fixed number per connection so memory does not grow with
 *  throughput. */
constexpr std::uint64_t kCheckEvalEvery = 61;
constexpr std::uint64_t kCheckSweepEvery = 5;
constexpr std::size_t kMaxKeptPerConnection = 200;
/** Every n-th request of a traced phase is replayed in-process. */
constexpr std::uint64_t kReplayEvery = 8;
/** Client 0 polls the stats op every n-th request when traced. */
constexpr std::uint64_t kStatsEvery = 500;
/**
 * Requests per second of --seconds: a run sends a fixed number of
 * requests (about --seconds long on a 4-core host) rather than
 * stopping on a clock, because the shared memo grows with every fresh
 * input, so peak memory would otherwise track throughput.
 */
constexpr double kRequestsPerSecond = 10000.0;

struct Served
{
    std::unique_ptr<EvalServer> server;
    std::vector<std::unique_ptr<ServerClient>> clients;

    Served() = default;
    Served(Served &&) = default;
    ~Served()
    {
        clients.clear();
        if (server)
            server->stop();
    }
};

/** Start the daemon and connect (and ping) every client. */
Served
startServer(const Options &opt)
{
    Served s;
    ServerOptions so;
    so.endpoint = Endpoint::unixPath(opt.workDir + "/server.sock");
    so.workers = kWorkers;
    s.server = unwrapOrFatal(EvalServer::start(so));
    for (int c = 0; c < kConnections; ++c) {
        ClientOptions co;
        co.endpoint = s.server->endpoint();
        co.retry = RetryPolicy::attempts(1);   // surface every failure
        co.timeoutSec = 60.0;
        s.clients.push_back(std::make_unique<ServerClient>(co));
        checkOrFatal(s.clients.back()->ping().status());
    }
    return s;
}

struct Rec
{
    std::uint64_t index = 0;
    MixOp op = MixOp::EvalNode;
    double latencyS = 0.0;
    bool ok = false;
};

/** A kept reply: (flops, total_w, budget_w) of each result point. */
struct Kept
{
    std::uint64_t index = 0;
    std::vector<double> values;
};

/** The checked fields of one result point (NaN when absent). */
void
keepPoint(const wire::JsonValue &point, std::vector<double> *out)
{
    for (const char *key : {"flops", "total_w", "budget_w"}) {
        const wire::JsonValue *v = point.find(key);
        out->push_back(v && v->isNumber() ? v->number() : std::nan(""));
    }
}

Kept
keepReply(std::uint64_t index, MixOp op, const wire::JsonValue &result)
{
    Kept k;
    k.index = index;
    if (op == MixOp::EvalNode) {
        keepPoint(result, &k.values);
    } else if (const wire::JsonValue *pts = result.find("points")) {
        for (const wire::JsonValue &p : pts->elements())
            keepPoint(p, &k.values);
    }
    return k;
}

struct Measured
{
    std::vector<Rec> recs;
    std::vector<Kept> kept;
    double seconds = 0.0;
    std::uint64_t first = 0, next = 0;   ///< stream range consumed
    double queueDepthMax = 0.0;
    double memoHits = 0.0, memoMisses = 0.0;
};

Measured
measure(const Options &opt, Served &served, double budget_s,
        std::uint64_t first, Tracer *tracer)
{
    Measured m;
    m.first = first;
    const std::uint64_t end =
        first + static_cast<std::uint64_t>(budget_s * kRequestsPerSecond);
    std::atomic<std::uint64_t> next{first};
    std::vector<std::vector<Rec>> recs(kConnections);
    std::vector<std::vector<Kept>> kept(kConnections);
    std::vector<double> depth(kConnections, 0.0);
    const double start = nowSeconds();

    auto client_loop = [&](int c) {
        ServerClient &client = *served.clients[static_cast<std::size_t>(c)];
        recs[static_cast<std::size_t>(c)].reserve(end - first);
        std::uint64_t sent = 0;
        for (;;) {
            const std::uint64_t idx = next.fetch_add(1);
            if (idx >= end)
                break;
            const MixRequest req = makeMixRequest(opt.seed, idx);
            wire::JsonValue params = req.params();
            Rec rec;
            rec.index = idx;
            rec.op = req.op;
            const double t0 = nowSeconds();
            Expected<wire::JsonValue> reply = [&] {
                Tracer::Span span(tracer, "server.call", idx + 1);
                return client.call(mixOpName(req.op), std::move(params));
            }();
            rec.latencyS = nowSeconds() - t0;
            rec.ok = reply.ok();
            if (!rec.ok) {
                std::cerr << "perfbench: request " << idx << " ("
                          << mixOpName(req.op)
                          << ") failed: " << reply.status().toString()
                          << "\n";
            } else if (((req.op == MixOp::EvalNode &&
                         idx % kCheckEvalEvery == 0) ||
                        (req.op == MixOp::Sweep &&
                         idx % kCheckSweepEvery == 0)) &&
                       kept[static_cast<std::size_t>(c)].size() <
                           kMaxKeptPerConnection) {
                kept[static_cast<std::size_t>(c)].push_back(
                    keepReply(idx, req.op, *reply));
            }
            recs[static_cast<std::size_t>(c)].push_back(rec);
            if (tracer && c == 0 && ++sent % kStatsEvery == 0) {
                Expected<wire::JsonValue> st = client.stats();
                if (st.ok()) {
                    if (const wire::JsonValue *q = st->find("queue_depth"))
                        depth[0] = std::max(depth[0], q->number());
                }
            }
        }
    };

    const EvalMemoCache &memo = EvalMemoCache::sharedInstance();
    const double hits0 = static_cast<double>(memo.hits());
    const double misses0 = static_cast<double>(memo.misses());
    std::vector<std::thread> threads;
    for (int c = 1; c < kConnections; ++c)
        threads.emplace_back(client_loop, c);
    client_loop(0);
    for (std::thread &t : threads)
        t.join();
    m.seconds = nowSeconds() - start;
    m.memoHits = static_cast<double>(memo.hits()) - hits0;
    m.memoMisses = static_cast<double>(memo.misses()) - misses0;
    m.next = end;
    m.queueDepthMax = depth[0];
    for (int c = 0; c < kConnections; ++c) {
        auto &r = recs[static_cast<std::size_t>(c)];
        m.recs.insert(m.recs.end(), r.begin(), r.end());
        auto &k = kept[static_cast<std::size_t>(c)];
        for (Kept &x : k)
            m.kept.push_back(std::move(x));
    }
    return m;
}

/** True when kept point @p i carries exactly @p r's result bits. */
bool
sameBits(const Kept &k, std::size_t i, const EvalResult &r)
{
    return 3 * i + 2 < k.values.size() &&
           bitsOf(k.values[3 * i]) == bitsOf(r.perf.flops) &&
           bitsOf(k.values[3 * i + 1]) == bitsOf(r.power.total()) &&
           bitsOf(k.values[3 * i + 2]) == bitsOf(r.power.budgetPower());
}

void
check(const Options &opt, const Measured &m, Report &report)
{
    std::uint64_t failed = 0;
    for (const Rec &r : m.recs)
        failed += !r.ok;
    report.ops(m.recs.size(), failed);

    NodeEvaluator local;
    for (const Kept &k : m.kept) {
        const MixRequest req = makeMixRequest(opt.seed, k.index);
        const App app = unwrapOrFatal(tryAppFromName(req.app));
        const NodeConfig base = mixNodeConfig(req);
        report.ops(1);
        if (req.op == MixOp::EvalNode) {
            if (!sameBits(k, 0, local.evaluate(base, app)))
                report.fail(strformat("eval_node request %llu differs from "
                                      "in-process evaluation",
                                      static_cast<unsigned long long>(
                                          k.index)));
            continue;
        }
        std::size_t i = 0;
        bool same = true;
        for (double v = req.from; same && v <= req.to + 1e-9;
             v += req.step, ++i) {
            NodeConfig cfg = base;
            if (req.axis == "cus")
                cfg.cus = static_cast<int>(v);
            else if (req.axis == "freq")
                cfg.freqGhz = v;
            else
                cfg.bwTbs = v;
            same = sameBits(k, i, local.evaluate(cfg, app));
        }
        if (!same || i != static_cast<std::size_t>(kSweepPoints) ||
            k.values.size() != 3 * i)
            report.fail(strformat("sweep request %llu differs from "
                                  "in-process evaluation",
                                  static_cast<unsigned long long>(k.index)));
    }
}

std::vector<double>
latenciesMs(const Measured &m, const MixOp *op = nullptr)
{
    std::vector<double> out;
    for (const Rec &r : m.recs) {
        if (r.ok && (!op || r.op == *op))
            out.push_back(r.latencyS * 1e3);
    }
    return out;
}

void
printLatencyMix(const Measured &m)
{
    section("latency by op (client side)");
    char buf[160];
    for (MixOp op : allMixOps()) {
        std::vector<double> ms = latenciesMs(m, &op);
        std::snprintf(buf, sizeof buf,
                      "  %-15s n=%-8zu share=%6.3f%%  p50=%9.4f ms  "
                      "max=%9.4f ms\n",
                      mixOpName(op), ms.size(),
                      100.0 * static_cast<double>(ms.size()) /
                          static_cast<double>(m.recs.size()),
                      median(ms), ms.empty() ? 0.0 : percentile(ms, 100000));
        std::cout << buf;
    }
    const std::vector<double> all = latenciesMs(m);
    const auto n = static_cast<std::int64_t>(all.size());
    std::cout << "  latency samples: " << n << "; p99 has "
              << samplesBeyond(n, 99000)
              << " samples beyond it; highest percentile with >= 10 "
                 "beyond: p"
              << static_cast<double>(highestSupportedPercentile(n)) / 1000.0
              << "\n";
}

double
repeatShareOf(const Options &opt, const Measured &m)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = m.first; i < m.next; ++i)
        keys.push_back(makeMixRequest(opt.seed, i).key());
    return repeatShare(keys);
}

/** Whether request i of [0, @p next) repeats the input of an earlier
 *  request, so the server's shared memo already held its result. */
std::vector<bool>
repeatsEarlierInput(const Options &opt, std::uint64_t next)
{
    std::vector<bool> out(next);
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < next; ++i)
        out[i] = !seen.insert(makeMixRequest(opt.seed, i).key()).second;
    return out;
}

} // anonymous namespace

int
runServerMix(const Options &opt, Report &report)
{
    Served served = startServer(opt);
    const double setup_s = setupSeconds(opt);
    if (opt.setupOnly) {
        report.metric("setup_s", setup_s, "s");
        return 0;
    }

    section("input properties");
    const MixShares &shares = serverMixShares();
    std::cout << "  closed loop: " << kConnections << " connections, "
              << kWorkers << " server workers, pool threads 2\n  mix:";
    for (std::size_t i = 0; i < allMixOps().size(); ++i)
        std::cout << " " << mixOpName(allMixOps()[i]) << " "
                  << shares.perMillion[i] / 1e4 << "%";
    std::cout << "\n  eval_node hot set " << kHotSetSize << " inputs, drawn "
              << kHotShare * 100 << "% of the time; sweeps "
              << kSweepPoints << " points\n";

    if (!opt.trace) {
        Measured m = measure(opt, served, opt.seconds, 0, nullptr);
        check(opt, m, report);
        printLatencyMix(m);
        std::cout << "  input repeat share: " << repeatShareOf(opt, m)
                  << "\n";
        const std::vector<double> all = latenciesMs(m);
        report.metric("setup_s", setup_s, "s");
        report.metric("op_ms", percentile(all, 50000), "ms");
        report.metric("req_per_s",
                      static_cast<double>(all.size()) / m.seconds, "1/s");
        report.metric("latency_p50_ms", percentile(all, 50000), "ms");
        report.metric("latency_p99_ms", percentile(all, 99000), "ms");
        return 0;
    }

    Measured plain = measure(opt, served, opt.seconds / 2, 0, nullptr);
    check(opt, plain, report);
    Tracer tracer;
    const ProgramCounts counts0 = ProgramCounts::now();
    Measured m =
        measure(opt, served, opt.seconds / 2, plain.next, &tracer);
    const ProgramCounts counts = ProgramCounts::now() - counts0;
    check(opt, m, report);
    // One round: the traced phase sends a fixed number of requests.
    reportLayers(report, tracer, counts, 1.0);
    printLatencyMix(m);

    // Replay a sample of the traced requests in-process: the service
    // (dispatch + evaluation) and the wire (parse + serialize, both
    // directions) without sockets, threads or queues. The replay shares
    // the server's memo, which the live run has filled, so service time
    // is warm-memo time; transport time is therefore taken only over
    // requests that repeat an earlier input, whose live call was a memo
    // hit too.
    EvalService service;
    NodeEvaluator local;
    const std::vector<bool> repeated = repeatsEarlierInput(opt, m.next);
    double service_s = 0.0, wire_s = 0.0, eval_s = 0.0;
    double warm_client_s = 0.0, warm_service_s = 0.0;
    std::uint64_t replayed = 0, warm = 0, evals = 0;
    for (const Rec &r : m.recs) {
        if (r.index % kReplayEvery != 0 || !r.ok)
            continue;
        const MixRequest req = makeMixRequest(opt.seed, r.index);
        const std::string line = req.line(r.index + 1);
        std::string response;
        double t0 = nowSeconds();
        {
            Tracer::Span span(&tracer, "server.service", r.index + 1);
            response = service.handleLine(line);
        }
        const double one_service_s = nowSeconds() - t0;
        service_s += one_service_s;
        if (repeated[r.index]) {
            warm_client_s += r.latencyS;
            warm_service_s += one_service_s;
            ++warm;
        }
        t0 = nowSeconds();
        {
            Tracer::Span span(&tracer, "server.wire", r.index + 1);
            Expected<wire::JsonValue> in = wire::tryParseJson(line);
            Expected<wire::JsonValue> out = wire::tryParseJson(response);
            if (!in.ok() || !out.ok() ||
                in->dump().size() + out->dump().size() == 0)
                report.fail("replayed line does not round-trip");
        }
        wire_s += nowSeconds() - t0;
        ++replayed;
        if (req.op == MixOp::EvalNode) {
            const NodeConfig cfg = mixNodeConfig(req);
            const App app = unwrapOrFatal(tryAppFromName(req.app));
            t0 = nowSeconds();
            {
                Tracer::Span span(&tracer, "core.scalar_eval", r.index + 1);
                if (!(local.evaluate(cfg, app).perf.flops > 0.0))
                    report.fail("scalar evaluation returned no flops");
            }
            eval_s += nowSeconds() - t0;
            ++evals;
        }
    }

    for (MixOp op : allMixOps())
        report.metric(std::string("server.op.") + mixOpName(op) + "_p50_ms",
                      median(latenciesMs(m, &op)), "ms");
    const double n_rep = static_cast<double>(replayed);
    report.metric("server.service_us", service_s * 1e6 / n_rep, "us");
    report.metric("server.wire_us", wire_s * 1e6 / n_rep, "us");
    report.metric("server.transport_us",
                  (warm_client_s - warm_service_s) * 1e6 /
                      static_cast<double>(warm),
                  "us");
    const MixOp sweep = MixOp::Sweep;
    std::vector<double> sweep_ms = latenciesMs(m, &sweep);
    double sweep_total_ms = 0.0;
    for (double v : sweep_ms)
        sweep_total_ms += v;
    report.metric("server.sweep_points_per_s",
                  static_cast<double>(sweep_ms.size() * kSweepPoints) /
                      (sweep_total_ms / 1e3),
                  "1/s");
    report.metric("server.queue_depth_max", m.queueDepthMax, "count");
    std::uint64_t errors = 0;
    for (const Rec &r : m.recs)
        errors += !r.ok;
    report.metric("server.errors", static_cast<double>(errors), "count");
    report.metric("server.repeat_share", repeatShareOf(opt, m), "ratio");
    report.metric("server.memo_hit_ratio",
                  m.memoHits / (m.memoHits + m.memoMisses), "ratio");
    report.metric("core.eval_ns", eval_s * 1e9 / static_cast<double>(evals),
                  "ns");
    reportOverhead(report,
                   static_cast<double>(plain.recs.size()) / plain.seconds,
                   static_cast<double>(m.recs.size()) / m.seconds, true);
    emitTrace(opt, tracer);
    return 0;
}

} // namespace perfbench
