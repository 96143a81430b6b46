/**
 * @file
 * Tests for the append-only sweep journal: record round-trips, CRC
 * rejection of corruption, recovery from the torn trailing record a
 * mid-write kill leaves behind, the ENA_SWEEP_JOURNAL ambient entry
 * point, and the sweep-cell payload codec.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "cluster/resilient_cluster.hh"
#include "cluster/scale_out_study.hh"
#include "core/dse.hh"
#include "core/sweep_journal.hh"

using namespace ena;

namespace {

/** A journal path unique to the test, removed on scope exit. */
struct TempJournal
{
    explicit TempJournal(const std::string &name)
        : path("test_sweep_journal_" + name + ".tmp")
    {
        std::remove(path.c_str());
    }
    ~TempJournal() { std::remove(path.c_str()); }

    std::string path;
};

std::unique_ptr<SweepJournal>
mustOpen(const std::string &path)
{
    auto j = SweepJournal::open(path);
    EXPECT_TRUE(j.ok()) << j.status().toString();
    return std::move(j).value();
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // anonymous namespace

TEST(JournalDetail, Crc32MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check vector.
    EXPECT_EQ(journal_detail::crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(journal_detail::crc32(""), 0u);
}

TEST(JournalDetail, EscapeRoundTripsControlCharacters)
{
    const std::string nasty = "a\tb\nc\rd\\e";
    const std::string escaped = journal_detail::escape(nasty);
    EXPECT_EQ(escaped.find('\t'), std::string::npos);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    std::string back;
    ASSERT_TRUE(journal_detail::unescape(escaped, &back));
    EXPECT_EQ(back, nasty);
}

TEST(JournalDetail, UnescapeRejectsMalformedEscapes)
{
    std::string out;
    EXPECT_FALSE(journal_detail::unescape("dangling\\", &out));
    EXPECT_FALSE(journal_detail::unescape("bad\\q", &out));
    EXPECT_TRUE(journal_detail::unescape("plain", &out));
    EXPECT_EQ(out, "plain");
}

TEST(SweepJournal, OpensEmptyAndAppends)
{
    TempJournal t("empty");
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 0u);
    EXPECT_EQ(j->droppedRecords(), 0u);
    EXPECT_EQ(j->appendedRecords(), 0u);
    EXPECT_EQ(j->path(), t.path);

    std::string payload;
    EXPECT_FALSE(j->lookup("k", &payload));
    j->append("k", "v");
    EXPECT_EQ(j->appendedRecords(), 1u);
    // Appends are visible to the *next* open, not to lookup() — the
    // loaded map is immutable while a sweep runs.
    EXPECT_FALSE(j->lookup("k", &payload));
}

TEST(SweepJournal, RecordsRoundTripAcrossReopen)
{
    TempJournal t("roundtrip");
    {
        auto j = mustOpen(t.path);
        j->append("dse[0]:cu320", "0x1.8p+1 0x1p+0 1 1 ");
        j->append("key with\ttab", "payload\nwith newline");
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 2u);
    EXPECT_EQ(j->droppedRecords(), 0u);
    std::string payload;
    ASSERT_TRUE(j->lookup("dse[0]:cu320", &payload));
    EXPECT_EQ(payload, "0x1.8p+1 0x1p+0 1 1 ");
    ASSERT_TRUE(j->lookup("key with\ttab", &payload));
    EXPECT_EQ(payload, "payload\nwith newline");
}

TEST(SweepJournal, CorruptRecordIsDroppedNotTrusted)
{
    TempJournal t("corrupt");
    {
        auto j = mustOpen(t.path);
        j->append("good", "1");
        j->append("flipped", "2");
    }
    // Flip one payload byte without fixing the CRC.
    std::string data = readAll(t.path);
    auto pos = data.rfind('2');
    ASSERT_NE(pos, std::string::npos);
    data[pos] = '3';
    std::ofstream(t.path, std::ios::binary | std::ios::trunc) << data;

    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 1u);
    EXPECT_EQ(j->droppedRecords(), 1u);
    std::string payload;
    EXPECT_TRUE(j->lookup("good", &payload));
    EXPECT_FALSE(j->lookup("flipped", &payload));
}

TEST(SweepJournal, TornTrailingRecordIsDroppedAndRepaired)
{
    TempJournal t("torn");
    {
        auto j = mustOpen(t.path);
        j->append("a", "1");
        j->append("b", "2");
    }
    // Simulate a kill -9 mid-write: cut the last record in half, no
    // trailing newline.
    std::string data = readAll(t.path);
    auto cut = data.find('\n') + 1;
    std::string torn = data.substr(0, cut + (data.size() - cut) / 2);
    std::ofstream(t.path, std::ios::binary | std::ios::trunc) << torn;

    {
        auto j = mustOpen(t.path);
        EXPECT_EQ(j->loadedRecords(), 1u);
        EXPECT_EQ(j->droppedRecords(), 1u);
        // The resumed run recomputes and re-appends the lost point; it
        // must start on a fresh line, not glue onto the torn record.
        j->append("b", "2");
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 2u);
    EXPECT_EQ(j->droppedRecords(), 1u);   // the torn half-line remains
    std::string payload;
    ASSERT_TRUE(j->lookup("b", &payload));
    EXPECT_EQ(payload, "2");
}

TEST(SweepJournal, GarbageLinesDoNotPoisonTheRest)
{
    TempJournal t("garbage");
    {
        auto j = mustOpen(t.path);
        j->append("keep", "me");
    }
    {
        std::ofstream out(t.path, std::ios::app);
        out << "not a record at all\n";
        out << "v1\tzzzz\tbad\tcrc-field\n";
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 1u);
    EXPECT_EQ(j->droppedRecords(), 2u);
}

TEST(SweepJournal, OpenFailsWithIoErrorOnAnUnwritablePath)
{
    auto j = SweepJournal::open("no/such/directory/journal");
    ASSERT_FALSE(j.ok());
    EXPECT_EQ(j.status().code(), ErrorCode::IoError);
    EXPECT_NE(j.status().message().find("no/such/directory/journal"),
              std::string::npos);
}

TEST(SweepJournal, OpenFromEnvironmentHonorsTheVariable)
{
    ASSERT_EQ(unsetenv("ENA_SWEEP_JOURNAL"), 0);
    EXPECT_EQ(SweepJournal::openFromEnvironment(), nullptr);

    TempJournal t("env");
    ASSERT_EQ(setenv("ENA_SWEEP_JOURNAL", t.path.c_str(), 1), 0);
    auto j = SweepJournal::openFromEnvironment();
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(j->path(), t.path);

    // An unusable path degrades to "no journal", it does not kill the
    // sweep.
    ASSERT_EQ(setenv("ENA_SWEEP_JOURNAL", "no/such/dir/j", 1), 0);
    EXPECT_EQ(SweepJournal::openFromEnvironment(), nullptr);
    ASSERT_EQ(unsetenv("ENA_SWEEP_JOURNAL"), 0);
}

TEST(SweepCellCodec, PayloadsKeepTheJournalFormat)
{
    // Pinned byte for byte: journals written by earlier builds must
    // keep resuming, so these strings never change.
    DsePoint d;
    d.geomeanFlops = 1.5;
    d.meanBudgetPowerW = 2.0;
    d.maxBudgetPowerW = 0.25;
    d.feasible = true;
    EXPECT_EQ(encodeSweepCell(d, DsePoint::journalFields()),
              "0x1.8p+0 0x1p+1 0x1p-2 1 1 ");

    TopologyPoint t;
    t.ok = false;
    t.error = "out_of_range: ClusterConfig: bad node count -3";
    EXPECT_EQ(encodeSweepCell(t, TopologyPoint::journalFields()),
              "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0 "
              "out_of_range: ClusterConfig: bad node count -3");

    ResilientSweepPoint r;
    r.systemMttfHours = 3.0;
    r.interruptionMttfHours = std::numeric_limits<double>::infinity();
    r.commEfficiency = 0.5;
    r.ckptEfficiency = 0.75;
    r.rmtSlowdown = 1.0;
    r.systemExaflops = -0.125;
    r.effectiveExaflops = 1e-3;
    r.systemMw = 20.0;
    const std::string payload =
        "0x1.8p+1 inf 0x1p-1 0x1.8p-1 0x1p+0 -0x1p-3 "
        "0x1.0624dd2f1a9fcp-10 0x1.4p+4 1 ";
    EXPECT_EQ(encodeSweepCell(r, ResilientSweepPoint::journalFields()),
              payload);

    // And each decodes back to the same bits.
    DsePoint d2;
    ASSERT_TRUE(decodeSweepCell("0x1.8p+0 0x1p+1 0x1p-2 1 1 ",
                                DsePoint::journalFields(), &d2));
    EXPECT_EQ(d2.geomeanFlops, 1.5);
    EXPECT_EQ(d2.maxBudgetPowerW, 0.25);
    EXPECT_TRUE(d2.feasible);
    EXPECT_TRUE(d2.ok);
    EXPECT_EQ(d2.error, "");

    TopologyPoint t2;
    ASSERT_TRUE(decodeSweepCell(
        encodeSweepCell(t, TopologyPoint::journalFields()),
        TopologyPoint::journalFields(), &t2));
    EXPECT_FALSE(t2.ok);
    EXPECT_EQ(t2.error, t.error);

    ResilientSweepPoint r2;
    ASSERT_TRUE(decodeSweepCell(payload, ResilientSweepPoint::journalFields(),
                                &r2));
    EXPECT_EQ(r2.interruptionMttfHours, r.interruptionMttfHours);
    EXPECT_EQ(r2.systemExaflops, r.systemExaflops);
    EXPECT_EQ(r2.effectiveExaflops, r.effectiveExaflops);
}

TEST(SweepCellCodec, MalformedPayloadsAreRejected)
{
    DsePoint d;
    const auto &f = DsePoint::journalFields();
    EXPECT_FALSE(decodeSweepCell("", f, &d));
    EXPECT_FALSE(decodeSweepCell("0x1p+0 0x1p+0 1 1 ", f, &d));
    EXPECT_FALSE(decodeSweepCell("0x1p+0 junk 0x1p+0 1 1 ", f, &d));
    EXPECT_FALSE(decodeSweepCell("0x1p+0 0x1p+0 0x1p+0 1", f, &d));
    EXPECT_TRUE(decodeSweepCell("0x1p+0 0x1p+0 0x1p+0 0 0 why", f, &d));
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.error, "why");
}
