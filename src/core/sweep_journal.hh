/**
 * @file
 * Append-only sweep journal and runSweep, the one engine behind every
 * study sweep: the DSE, topology and protection sweeps (journaled) and
 * the task-graph sweep (not journaled).
 *
 * A journaled sweep streams one record per finished grid point to a
 * journal file (one CRC-guarded line each, flushed as written). When a
 * run is killed mid-sweep, re-running with the same journal path skips
 * every point already on disk and recomputes only the missing ones,
 * producing a result table bit-identical to an uninterrupted run
 * (records encode doubles as hexfloats, so values round-trip exactly;
 * gated by bench_fault_tolerance).
 *
 * Record format, one per line:
 *
 *   v1 <TAB> crc32-hex8 <TAB> key <TAB> payload
 *
 * The CRC covers "key TAB payload" (after escaping); a partial trailing
 * line from a mid-write kill, or any line whose CRC does not match, is
 * dropped with a warning on load and simply recomputed. Keys and
 * payloads are escaped so they may contain tabs and newlines.
 *
 * The journal is activated either explicitly (open a journal and hand
 * it to the sweep overloads that take one) or ambiently via the
 * ENA_SWEEP_JOURNAL environment variable, which the plain sweep entry
 * points consult. Entries loaded at open are immutable while a sweep
 * runs, so lookups need no lock; appends are serialized by a mutex and
 * flushed per record.
 */

#ifndef ENA_CORE_SWEEP_JOURNAL_HH
#define ENA_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/metrics.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

class SweepJournal
{
  public:
    /**
     * Open (creating if absent) the journal at @p path, loading every
     * intact record already present. IoError when the file cannot be
     * opened for append.
     */
    static Expected<std::unique_ptr<SweepJournal>> open(
        const std::string &path);

    /**
     * The ambient flavor: open the path named by ENA_SWEEP_JOURNAL, or
     * return null when the variable is unset. An unusable path warns
     * and returns null (the sweep then simply runs unjournaled).
     */
    static std::unique_ptr<SweepJournal> openFromEnvironment();

    /**
     * Look up a previously journaled record. Safe to call concurrently
     * from sweep tasks: the loaded map is immutable after open.
     */
    bool lookup(const std::string &key, std::string *payload) const;

    /** Append one record and flush it to disk. Thread-safe. */
    void append(const std::string &key, const std::string &payload);

    const std::string &path() const { return path_; }

    /** Intact records found on disk at open (i.e. skippable points). */
    std::size_t loadedRecords() const { return loaded_.size(); }

    /** Corrupt or partial lines dropped while loading. */
    std::size_t droppedRecords() const { return dropped_; }

    /** Records written by this process so far. */
    std::size_t
    appendedRecords() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return appended_;
    }

  private:
    SweepJournal() = default;

    std::string path_;
    std::map<std::string, std::string> loaded_;
    std::size_t dropped_ = 0;

    mutable std::mutex m_;
    std::ofstream out_;
    std::size_t appended_ = 0;
};

/**
 * The journaled fields of one sweep cell type. The payload is each
 * double as "%a ", each flag and then the cell's `ok` as "%d ", then
 * the cell's `error` text. The key pins the cell's coordinates.
 */
template <typename Cell>
struct SweepCellFields
{
    std::vector<double Cell::*> doubles;
    std::vector<bool Cell::*> flags;
};

/** The journal payload of @p c. */
template <typename Cell>
std::string
encodeSweepCell(const Cell &c, const SweepCellFields<Cell> &fields)
{
    std::string out;
    for (double Cell::*d : fields.doubles)
        out += strformat("%a ", c.*d);
    for (bool Cell::*b : fields.flags)
        out += c.*b ? "1 " : "0 ";
    return out + (c.ok ? "1 " : "0 ") + c.error;
}

/** Inverse of encodeSweepCell; false on a malformed payload. */
template <typename Cell>
bool
decodeSweepCell(const std::string &payload,
                const SweepCellFields<Cell> &fields, Cell *c)
{
    const char *s = payload.c_str();
    auto next = [&s](double *v) {
        char *end = nullptr;
        *v = std::strtod(s, &end);
        if (end == s || *end != ' ')
            return false;
        s = end + 1;
        return true;
    };
    double v = 0.0;
    for (double Cell::*d : fields.doubles) {
        if (!next(&(c->*d)))
            return false;
    }
    for (bool Cell::*b : fields.flags) {
        if (!next(&v))
            return false;
        c->*b = v != 0.0;
    }
    if (!next(&v))
        return false;
    c->ok = v != 0.0;
    c->error = s;
    return true;
}

/**
 * The one sweep engine, over cells [0, n) of a type with `bool ok` and
 * `std::string error`. Callers supply what differs: cell_at(i) builds
 * a cell from its coordinates, key_of(i, cell) names its journal
 * record, validate(i, cell) returns its Status, and evaluate(i, cell&)
 * fills in its scores and may throw.
 *
 * Serially, in index order, each cell is built and replayed from the
 * journal (an undecodable record warns and is recomputed) or else
 * validated. The survivors are evaluated on the process pool, each
 * into its own slot. A cell that fails validation, or whose evaluation
 * throws (it is then rebuilt from its coordinates), is quarantined:
 * ok = false, the diagnostic in error, one count in
 * sweep.configs_failed and a warning (in index order for validation
 * failures). Every cell finished here is appended to the journal.
 * Results are bit-identical to a serial run at any thread count;
 * cell_at and evaluate must be safe to call concurrently.
 */
template <typename Cell, typename CellAt, typename KeyOf,
          typename Validate, typename Evaluate>
std::vector<Cell>
runSweep(std::size_t n, SweepJournal *journal,
         const SweepCellFields<Cell> &fields, const char *what,
         CellAt &&cell_at, KeyOf &&key_of, Validate &&validate,
         Evaluate &&evaluate)
{
    static telemetry::Counter &failed = telemetry::counter(
        "sweep.configs_failed",
        "grid points quarantined instead of evaluated");
    std::vector<Cell> cells;
    cells.reserve(n);
    std::vector<std::string> keys(journal ? n : 0);
    // Quarantine the cell when @p error is set; journal it either way.
    auto finish = [&](std::size_t i, Cell &c, const char *error) {
        if (error) {
            c.ok = false;
            c.error = error;
            failed.add();
            warn(what, ": quarantined cell ", i, ": ", c.error);
        }
        if (journal)
            journal->append(keys[i], encodeSweepCell(c, fields));
    };

    std::vector<std::size_t> todo;
    todo.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Cell &c = cells.emplace_back(cell_at(i));
        if (journal) {
            keys[i] = key_of(i, c);
            std::string payload;
            if (journal->lookup(keys[i], &payload)) {
                Cell replayed = c;
                if (decodeSweepCell(payload, fields, &replayed)) {
                    c = std::move(replayed);
                    continue;
                }
                warn("sweep journal: undecodable payload for '", keys[i],
                     "'; recomputing");
            }
        }
        Status valid = validate(i, c);
        if (valid.ok())
            todo.push_back(i);
        else
            finish(i, c, valid.toString().c_str());
    }

    ThreadPool::global().parallelFor(todo.size(), [&](std::size_t j) {
        const std::size_t i = todo[j];
        Cell &c = cells[i];
        try {
            evaluate(i, c);
        } catch (const std::exception &e) {
            c = cell_at(i);
            finish(i, c, e.what());
            return;
        }
        finish(i, c, nullptr);
    });
    return cells;
}

/** runSweep without a journal. */
template <typename CellAt, typename Validate, typename Evaluate>
auto
runSweep(std::size_t n, const char *what, CellAt &&cell_at,
         Validate &&validate, Evaluate &&evaluate)
{
    using Cell = std::decay_t<std::invoke_result_t<CellAt &, std::size_t>>;
    auto no_key = [](std::size_t, const Cell &) { return std::string(); };
    return runSweep(n, nullptr, SweepCellFields<Cell>{}, what, cell_at,
                    no_key, validate, evaluate);
}

namespace journal_detail {

/** CRC-32 (IEEE, reflected) over @p data. */
std::uint32_t crc32(const std::string &data);

/** Escape tabs, newlines, and backslashes for one-line records. */
std::string escape(const std::string &s);

/** Inverse of escape(); false when the escaping is malformed. */
bool unescape(const std::string &s, std::string *out);

} // namespace journal_detail

} // namespace ena

#endif // ENA_CORE_SWEEP_JOURNAL_HH
