/**
 * @file
 * Shared check for the journaled cluster sweeps: a sweep resumed from
 * a journal that a kill left half written (half its records plus one
 * torn line) must reproduce the unjournaled sweep bit for bit,
 * quarantined cells and their error text included.
 */

#ifndef ENA_TESTS_CLUSTER_JOURNAL_RESUME_HH
#define ENA_TESTS_CLUSTER_JOURNAL_RESUME_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep_journal.hh"

namespace ena {
namespace test {

/**
 * Keep the first @p keep lines of the journal at @p path and append
 * the first half of the next one without its newline, as a kill in
 * the middle of a write leaves it.
 */
inline void
tearJournal(const std::string &path, std::size_t keep)
{
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), keep);
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < keep; ++i)
        out << lines[i] << "\n";
    out << lines[keep].substr(0, lines[keep].size() / 2);
}

/**
 * Run @p sweep (SweepJournal * -> std::vector<Cell>) unjournaled,
 * journaled, replayed from the whole journal, and resumed from a torn
 * half of it; every journaled run must match the unjournaled one
 * bitwise (compared through the hexfloat codec) with ok and error
 * intact. Returns the unjournaled cells.
 */
template <typename Cell, typename Sweep>
std::vector<Cell>
expectJournalResumes(const std::string &path, Sweep &&sweep)
{
    const SweepCellFields<Cell> &fields = Cell::journalFields();
    auto expectSame = [&](const std::vector<Cell> &got,
                          const std::vector<Cell> &want) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(encodeSweepCell(got[i], fields),
                      encodeSweepCell(want[i], fields))
                << "cell " << i;
            EXPECT_EQ(got[i].ok, want[i].ok) << "cell " << i;
            EXPECT_EQ(got[i].error, want[i].error) << "cell " << i;
        }
    };

    std::remove(path.c_str());
    const std::vector<Cell> reference = sweep(nullptr);
    const std::size_t n = reference.size();
    {
        auto j = std::move(SweepJournal::open(path)).value();
        expectSame(sweep(j.get()), reference);
        EXPECT_EQ(j->appendedRecords(), n);
    }
    {
        // Every cell replays from the journal, quarantined ones too.
        auto j = std::move(SweepJournal::open(path)).value();
        EXPECT_EQ(j->loadedRecords(), n);
        expectSame(sweep(j.get()), reference);
        EXPECT_EQ(j->appendedRecords(), 0u);
    }
    tearJournal(path, n / 2);
    {
        auto j = std::move(SweepJournal::open(path)).value();
        EXPECT_EQ(j->loadedRecords(), n / 2);
        EXPECT_EQ(j->droppedRecords(), 1u);
        expectSame(sweep(j.get()), reference);
        EXPECT_EQ(j->appendedRecords(), n - n / 2);
    }
    std::remove(path.c_str());
    return reference;
}

} // namespace test
} // namespace ena

#endif // ENA_TESTS_CLUSTER_JOURNAL_RESUME_HH
