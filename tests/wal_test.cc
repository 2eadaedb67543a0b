// The budget write-ahead ledger: golden-file frame bytes, CRC/torn-tail
// rejection, replay semantics (never refund), and failpoint-injected
// append failures.
#include "store/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "store/io.h"

namespace privbasis::store {
namespace {

std::string HexDecode(std::string_view hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// Fresh path under the build dir; removed up front so reruns are clean.
std::string TempPath(const std::string& name) {
  const std::string path = "wal_test_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value (zlib-compatible polynomial).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// ---- golden frame bytes (the byte-exact wire contract of the file) ----

TEST(WalCodecTest, ReserveRecordGoldenBytes) {
  WalRecord record;
  record.type = WalRecord::Type::kReserve;
  record.txn = 7;
  record.epsilon = 0.5;
  record.dataset = "ds-1";
  record.label = "q";
  const std::string payload = EncodeWalRecord(record);
  EXPECT_EQ(payload, HexDecode("010700000000000000"
                               "000000000000e03f"
                               "040064732d31"
                               "010071"));
  EXPECT_EQ(EncodeWalFrame(payload),
            HexDecode("1a0000006687c9c0"
                      "010700000000000000000000000000e03f040064732d31"
                      "010071"));
}

TEST(WalCodecTest, CommitAndAbortGoldenBytes) {
  WalRecord commit;
  commit.type = WalRecord::Type::kCommit;
  commit.txn = 7;
  commit.epsilon = 0.25;
  commit.dataset = "ds-1";
  commit.label = "q";
  EXPECT_EQ(EncodeWalRecord(commit),
            HexDecode("020700000000000000000000000000d03f040064732d31"
                      "010071"));

  WalRecord abort_record;
  abort_record.type = WalRecord::Type::kAbort;
  abort_record.txn = 9;
  EXPECT_EQ(EncodeWalFrame(EncodeWalRecord(abort_record)),
            HexDecode("090000004033cbc0030900000000000000"));
}

TEST(WalCodecTest, DecodeRoundTripsEveryType) {
  WalRecord reserve;
  reserve.type = WalRecord::Type::kReserve;
  reserve.txn = 123456789;
  reserve.epsilon = 0.123456;
  reserve.dataset = "retail";
  reserve.label = "pb k=100 (ε = 1)";
  auto decoded = DecodeWalRecord(EncodeWalRecord(reserve));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecord::Type::kReserve);
  EXPECT_EQ(decoded->txn, reserve.txn);
  EXPECT_EQ(decoded->epsilon, reserve.epsilon);  // bit-exact
  EXPECT_EQ(decoded->dataset, reserve.dataset);
  EXPECT_EQ(decoded->label, reserve.label);
}

TEST(WalCodecTest, UnknownRecordTypeIsVersionSkewNotCorruption) {
  std::string payload = EncodeWalRecord(WalRecord{});
  payload[0] = 42;  // a type only a future version writes
  auto decoded = DecodeWalRecord(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalCodecTest, TruncatedAndOversizedPayloadsRejected) {
  const std::string payload = EncodeWalRecord(WalRecord{});
  EXPECT_EQ(DecodeWalRecord(payload.substr(0, payload.size() - 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeWalRecord(payload + "x").status().code(),
            StatusCode::kInvalidArgument);
}

// ---- open/replay ------------------------------------------------------

TEST(WalTest, FreshFileReplaysEmpty) {
  const std::string path = TempPath("fresh.wal");
  auto wal = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->recovered().ledgers.empty());
  EXPECT_EQ((*wal)->recovered().next_txn, 1u);
  // The header alone is on disk.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "PBWAL001");
  std::remove(path.c_str());
}

TEST(WalTest, ReplayChargesCommitsAbortsAndInFlightReservations) {
  const std::string path = TempPath("replay.wal");
  {
    auto wal = BudgetWal::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    // committed at less than reserved: replay charges the actual
    auto t1 = (*wal)->AppendReserve("a", 0.5, "q1");
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE((*wal)->AppendCommit(*t1, "a", 0.25, "q1").ok());
    // aborted: replay charges the FULL reservation
    auto t2 = (*wal)->AppendReserve("a", 0.5, "q2");
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE((*wal)->AppendAbort(*t2).ok());
    // in-flight at "crash": full reservation too, on another dataset
    ASSERT_TRUE((*wal)->AppendReserve("b", 0.125, "q3").ok());
  }
  auto wal = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  const WalReplay& replay = (*wal)->recovered();
  ASSERT_EQ(replay.ledgers.count("a"), 1u);
  ASSERT_EQ(replay.ledgers.count("b"), 1u);
  EXPECT_EQ(replay.ledgers.at("a").spent, 0.75);  // 0.25 + 0.5, exact
  EXPECT_EQ(replay.ledgers.at("b").spent, 0.125);
  EXPECT_EQ(replay.in_flight, 1u);
  EXPECT_EQ(replay.next_txn, 4u);
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(replay.ledgers.at("a").entries.size(), 2u);
  EXPECT_EQ(replay.ledgers.at("a").entries[0].label, "q1");
  EXPECT_EQ(replay.ledgers.at("a").entries[1].label, "q2 (aborted)");
  EXPECT_EQ(replay.ledgers.at("b").entries[0].label,
            "q3 (in-flight at crash)");
  std::remove(path.c_str());
}

TEST(WalTest, TornTailIsTruncatedAndAppendsContinue) {
  const std::string path = TempPath("torn.wal");
  uint64_t txn1 = 0;
  {
    auto wal = BudgetWal::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    auto t = (*wal)->AppendReserve("a", 0.5, "q1");
    ASSERT_TRUE(t.ok());
    txn1 = *t;
    ASSERT_TRUE((*wal)->AppendCommit(txn1, "a", 0.5, "q1").ok());
  }
  // Simulate a crash mid-append: half a frame of garbage at the tail.
  {
    auto file = AppendFile::Open(path, "test");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        file->Append(std::string("\x20\x00\x00\x00garbage", 11)).ok());
  }
  auto reopened = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->recovered().truncated_tail);
  EXPECT_EQ((*reopened)->recovered().ledgers.at("a").spent, 0.5);
  // New appends land at the truncated boundary and replay cleanly.
  auto t2 = (*reopened)->AppendReserve("a", 0.25, "q2");
  ASSERT_TRUE(t2.ok());
  EXPECT_GT(*t2, txn1);
  ASSERT_TRUE((*reopened)->AppendCommit(*t2, "a", 0.25, "q2").ok());
  reopened->reset();

  auto final_open = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(final_open.ok());
  EXPECT_FALSE((*final_open)->recovered().truncated_tail);
  EXPECT_EQ((*final_open)->recovered().ledgers.at("a").spent, 0.75);
  std::remove(path.c_str());
}

TEST(WalTest, CorruptedFrameCrcDropsTail) {
  const std::string path = TempPath("crc.wal");
  {
    auto wal = BudgetWal::Open(path, FsyncMode::kNever);
    ASSERT_TRUE(wal.ok());
    auto t1 = (*wal)->AppendReserve("a", 0.5, "q1");
    ASSERT_TRUE((*wal)->AppendCommit(*t1, "a", 0.5, "q1").ok());
    auto t2 = (*wal)->AppendReserve("a", 0.25, "q2");
    ASSERT_TRUE((*wal)->AppendCommit(*t2, "a", 0.25, "q2").ok());
  }
  // Flip one byte in the LAST frame's payload: that frame and everything
  // after it (nothing) vanish; the earlier records survive.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() - 2] ^= 0x01;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(mutated.data(), 1, mutated.size(), f);
    std::fclose(f);
  }
  auto reopened = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->recovered().truncated_tail);
  // q2's reserve+commit were in the dropped tail region only if the flip
  // hit the commit frame; what must hold either way: q1's commit
  // survived and nothing was double-charged.
  EXPECT_GE((*reopened)->recovered().ledgers.at("a").spent, 0.5);
  EXPECT_LE((*reopened)->recovered().ledgers.at("a").spent, 1.0);
  std::remove(path.c_str());
}

TEST(WalTest, ForeignFileAndVersionSkewRefused) {
  const std::string path = TempPath("foreign.wal");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a WAL at all", f);
    std::fclose(f);
  }
  EXPECT_EQ(BudgetWal::Open(path, FsyncMode::kNever).status().code(),
            StatusCode::kIoError);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("PBWAL999", f);  // right magic, future version
    std::fclose(f);
  }
  EXPECT_EQ(BudgetWal::Open(path, FsyncMode::kNever).status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(WalTest, EnospcAppendFailsCleanAndHeals) {
  const std::string path = TempPath("enospc.wal");
  auto wal = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  auto t1 = (*wal)->AppendReserve("a", 0.5, "q1");
  ASSERT_TRUE(t1.ok());

  // Disk "fills" for exactly one append.
  ASSERT_TRUE(failpoint::Configure("wal_append=error:ENOSPC").ok());
  auto failed = (*wal)->AppendReserve("a", 0.25, "q2");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  failpoint::Reset();

  // The WAL healed: later appends work and replay sees no gap.
  ASSERT_TRUE((*wal)->AppendCommit(*t1, "a", 0.5, "q1").ok());
  wal->reset();
  auto reopened = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->recovered().truncated_tail);
  EXPECT_EQ((*reopened)->recovered().ledgers.at("a").spent, 0.5);
  std::remove(path.c_str());
}

TEST(WalTest, TornAppendIsRolledBackBeforeNextAppend) {
  const std::string path = TempPath("tornappend.wal");
  auto wal = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(wal.ok());
  auto t1 = (*wal)->AppendReserve("a", 0.5, "q1");
  ASSERT_TRUE(t1.ok());

  // A crash-shaped failure: 12 bytes of the frame land, then EIO.
  ASSERT_TRUE(failpoint::Configure("wal_append=torn:12").ok());
  auto failed = (*wal)->AppendCommit(*t1, "a", 0.5, "q1");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  failpoint::Reset();

  // Self-heal truncated the 12 garbage bytes: the retried commit must
  // replay cleanly with no torn tail.
  ASSERT_TRUE((*wal)->AppendCommit(*t1, "a", 0.5, "q1").ok());
  wal->reset();
  auto reopened = BudgetWal::Open(path, FsyncMode::kNever);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->recovered().truncated_tail);
  EXPECT_EQ((*reopened)->recovered().ledgers.at("a").spent, 0.5);
  std::remove(path.c_str());
}

TEST(WalTest, FsyncModesAppendIdentically) {
  for (const FsyncMode mode :
       {FsyncMode::kAlways, FsyncMode::kCommit, FsyncMode::kNever}) {
    const std::string path =
        TempPath("mode_" + std::to_string(static_cast<int>(mode)));
    auto wal = BudgetWal::Open(path, mode);
    ASSERT_TRUE(wal.ok());
    auto t = (*wal)->AppendReserve("a", 0.5, "q");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*wal)->AppendCommit(*t, "a", 0.5, "q").ok());
    wal->reset();
    auto reopened = BudgetWal::Open(path, mode);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*reopened)->recovered().ledgers.at("a").spent, 0.5);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace privbasis::store
