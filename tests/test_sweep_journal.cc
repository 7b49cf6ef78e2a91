// SweepJournal unit tests: the CRC primitive, escaping, the write/load
// round-trip and — the point of the design — every corruption mode
// degrading gracefully (truncated tail, corrupted CRC, config mismatch,
// zero-length and garbage files) without crashing or dropping the valid
// prefix, including under seeded single-byte mutation and truncation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "sim/sweep_journal.h"

namespace fefet {
namespace {

class SweepJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "sweep_journal_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string readFile() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  void writeFile(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  /// A journal with a header (3 points, seed 7, digest 99) and records for
  /// points 0 and 2.
  void writeReference() const {
    sim::SweepJournal journal(path_, 3, 7, 99);
    journal.appendPoint(0, "alpha");
    journal.appendPoint(2, "gamma");
  }

  std::string path_;
};

TEST(SweepJournalCrc, MatchesTheIeeeCheckValue) {
  EXPECT_EQ(sim::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(sim::crc32(""), 0x00000000u);
  EXPECT_NE(sim::crc32("abc"), sim::crc32("abd"));
}

// The journal escapes payloads with the common JSON escaper.
TEST(SweepJournalEscape, ControlAndQuoteCharactersRoundTrip) {
  EXPECT_EQ(strings::jsonEscape("plain"), "plain");
  EXPECT_EQ(strings::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(strings::jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(strings::jsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(strings::jsonEscape("\b\f"), "\\u0008\\u000c");
}

TEST_F(SweepJournalTest, WriteThenLoadRoundTrips) {
  writeReference();
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(load.usable);
  EXPECT_TRUE(load.warning.empty()) << load.warning;
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].index, 0u);
  EXPECT_EQ(load.records[0].payload, "alpha");
  EXPECT_EQ(load.records[1].index, 2u);
  EXPECT_EQ(load.records[1].payload, "gamma");
  EXPECT_EQ(load.validBytes, readFile().size());
}

TEST_F(SweepJournalTest, BinaryishPayloadRoundTrips) {
  {
    sim::SweepJournal journal(path_, 1, 1, 0);
    journal.appendPoint(0, std::string("a\"b\\c\nd\x01e"));
  }
  const auto load = sim::SweepJournal::load(path_, 1, 1, 0);
  ASSERT_TRUE(load.usable);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].payload, std::string("a\"b\\c\nd\x01e"));
}

// Journals written before the payload escaper was shared spelled
// backspace and form feed as \b and \f; today's writer emits \u0008 and
// \u000c.  Both spellings must load to the same bytes, so an older
// journal still resumes.
TEST_F(SweepJournalTest, ShortAndUnicodeControlEscapesLoadIdentically) {
  const auto frame = [](const std::string& body) {
    char crc[9];
    std::snprintf(crc, sizeof(crc), "%08x", sim::crc32(body));
    return "{\"crc\":\"" + std::string(crc) + "\",\"rec\":" + body + "}\n";
  };
  writeFile(
      frame("{\"type\":\"header\",\"version\":1,\"points\":2,"
            "\"baseSeed\":7,\"configDigest\":99}") +
      frame("{\"type\":\"point\",\"index\":0,"
            "\"payload\":\"x\\by\\fz\"}") +
      frame("{\"type\":\"point\",\"index\":1,"
            "\"payload\":\"x\\u0008y\\u000cz\"}"));
  const auto load = sim::SweepJournal::load(path_, 2, 7, 99);
  ASSERT_TRUE(load.usable) << load.warning;
  EXPECT_TRUE(load.warning.empty()) << load.warning;
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].payload, std::string("x\by\fz"));
  EXPECT_EQ(load.records[1].payload, load.records[0].payload);
}

TEST_F(SweepJournalTest, MissingFileStartsFresh) {
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_FALSE(load.usable);
  EXPECT_NE(load.warning.find("does not exist"), std::string::npos);
  EXPECT_TRUE(load.records.empty());
}

TEST_F(SweepJournalTest, ZeroLengthFileStartsFreshWithWarning) {
  writeFile("");
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_FALSE(load.usable);
  EXPECT_NE(load.warning.find("empty"), std::string::npos);
}

TEST_F(SweepJournalTest, GarbageFileStartsFreshWithWarning) {
  writeFile("this is not a journal\nnot even close\n");
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_FALSE(load.usable);
  EXPECT_NE(load.warning.find("no valid header"), std::string::npos);
}

TEST_F(SweepJournalTest, TruncatedMidRecordKeepsTheValidPrefix) {
  writeReference();
  const std::string full = readFile();
  // Chop the last record in half: a torn tail from a mid-write kill.
  writeFile(full.substr(0, full.size() - 10));
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(load.usable);
  EXPECT_NE(load.warning.find("torn tail"), std::string::npos);
  ASSERT_EQ(load.records.size(), 1u);  // the prefix survives
  EXPECT_EQ(load.records[0].payload, "alpha");
  EXPECT_LT(load.validBytes, full.size());
}

TEST_F(SweepJournalTest, CorruptedCrcDropsOnlyTheDamagedSuffix) {
  writeReference();
  std::string full = readFile();
  // Flip one payload byte inside the LAST record: its CRC check must fail.
  const auto pos = full.rfind("gamma");
  ASSERT_NE(pos, std::string::npos);
  full[pos] = 'X';
  writeFile(full);
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(load.usable);
  EXPECT_NE(load.warning.find("corrupt record"), std::string::npos);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].payload, "alpha");
}

TEST_F(SweepJournalTest, MismatchedConfigDigestStartsFresh) {
  writeReference();
  const auto load = sim::SweepJournal::load(path_, 3, 7, /*configDigest=*/100);
  EXPECT_FALSE(load.usable);
  EXPECT_NE(load.warning.find("different run configuration"),
            std::string::npos);
  EXPECT_TRUE(load.records.empty());
}

TEST_F(SweepJournalTest, MismatchedPointCountOrSeedStartsFresh) {
  writeReference();
  EXPECT_FALSE(sim::SweepJournal::load(path_, 4, 7, 99).usable);
  EXPECT_FALSE(sim::SweepJournal::load(path_, 3, 8, 99).usable);
}

TEST_F(SweepJournalTest, DuplicateIndexKeepsTheFirstRecord) {
  {
    sim::SweepJournal journal(path_, 3, 7, 99);
    journal.appendPoint(1, "first");
    journal.appendPoint(1, "second");
  }
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(load.usable);
  EXPECT_NE(load.warning.find("repeats point 1"), std::string::npos);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].payload, "first");
}

TEST_F(SweepJournalTest, OutOfRangeIndexTruncatesToTheLastGoodRecord) {
  {
    sim::SweepJournal journal(path_, 3, 7, 99);
    journal.appendPoint(0, "ok");
    journal.appendPoint(7, "out of range");  // index >= expectedPoints
  }
  const auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(load.usable);
  EXPECT_NE(load.warning.find("malformed point record"), std::string::npos);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].payload, "ok");
}

TEST_F(SweepJournalTest, ResumeTruncatesTheTornTailAndAppends) {
  writeReference();
  const std::string full = readFile();
  writeFile(full + "{\"crc\":\"00000000\",\"rec\":{\"type\":\"poi");  // torn
  auto load = sim::SweepJournal::load(path_, 3, 7, 99);
  ASSERT_TRUE(load.usable);
  {
    sim::SweepJournal journal(path_, 3, 7, 99, &load);
    journal.appendPoint(1, "beta");
  }
  const auto reloaded = sim::SweepJournal::load(path_, 3, 7, 99);
  EXPECT_TRUE(reloaded.usable);
  EXPECT_TRUE(reloaded.warning.empty()) << reloaded.warning;
  ASSERT_EQ(reloaded.records.size(), 3u);  // alpha, gamma, beta — no tail
}

TEST_F(SweepJournalTest, FreshOpenOverwritesAnExistingJournal) {
  writeReference();
  { sim::SweepJournal journal(path_, 5, 11, 13); }
  const auto load = sim::SweepJournal::load(path_, 5, 11, 13);
  EXPECT_TRUE(load.usable);
  EXPECT_TRUE(load.records.empty());
}


TEST_F(SweepJournalTest, MutationRobustness) {
  // Seeded fuzzing of the reader: single-byte mutations and truncations of
  // a valid journal must never throw or crash, must return only in-range,
  // unique, uncorrupted records, and must report through `warning` any
  // record it drops whose line survived intact.
  const std::vector<std::string> payloads = {"alpha", "b\"eta\n", "",
                                             "\x01\\delta", "epsilon"};
  {
    sim::SweepJournal journal(path_, payloads.size(), 7, 99);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      journal.appendPoint(i, payloads[i]);
    }
  }
  const std::string base = readFile();
  // [begin, end) byte range of each point record's line, newline included.
  std::vector<std::pair<std::size_t, std::size_t>> recordLines;
  for (std::size_t begin = base.find('\n') + 1; begin < base.size();) {
    const std::size_t end = base.find('\n', begin) + 1;
    recordLines.emplace_back(begin, end);
    begin = end;
  }
  ASSERT_EQ(recordLines.size(), payloads.size());

  stats::Rng rng(2024);
  int warned = 0;
  for (int i = 0; i < 400; ++i) {
    std::string input = base;
    std::size_t intact = 0;
    if (i % 2 == 0) {
      const auto pos = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(base.size()) - 1));
      input[pos] = static_cast<char>(rng.uniformInt(0, 255));
      for (const auto& [begin, end] : recordLines) {
        if (pos < begin || pos >= end || input[pos] == base[pos]) ++intact;
      }
    } else {
      input.resize(static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(base.size()))));
      for (const auto& [begin, end] : recordLines) {
        if (end <= input.size()) ++intact;
      }
    }
    writeFile(input);
    sim::SweepJournalLoad load;
    ASSERT_NO_THROW(load = sim::SweepJournal::load(path_, payloads.size(),
                                                   7, 99))
        << "input " << i;
    std::set<std::size_t> seen;
    for (const auto& record : load.records) {
      ASSERT_LT(record.index, payloads.size()) << "input " << i;
      EXPECT_TRUE(seen.insert(record.index).second)
          << "input " << i << " repeats point " << record.index;
      EXPECT_EQ(record.payload, payloads[record.index]) << "input " << i;
    }
    if (!load.usable || load.records.size() < intact) {
      EXPECT_FALSE(load.warning.empty())
          << "input " << i << " lost records silently";
    }
    if (!load.warning.empty()) ++warned;
  }
  // Nearly every input is damaged: only a truncation on a line boundary or
  // a byte rewritten to itself loads cleanly.
  EXPECT_GT(warned, 300);
}

}  // namespace
}  // namespace fefet
