// BudgetWal: the write-ahead ledger that makes ε spend survive crashes.
//
// File layout: an 8-byte header ("PBWAL" + 3-digit version) followed by
// CRC32-framed records:
//
//   [u32 LE payload_len][u32 LE crc32(payload)][payload]
//
// Payload: u8 record type, u64 LE txn id, then per type:
//   kReserve(1) / kCommit(2): f64 LE epsilon (IEEE bit pattern),
//       u16 LE dataset-id length + bytes, u16 LE label length + bytes
//   kAbort(3): nothing further
//
// Protocol (driven by the Accountant through WalAccountantJournal):
//   * a query RESERVEs its worst-case ε before any noise is drawn;
//   * success COMMITs the actual spend (≤ the reservation);
//   * failure ABORTs, which replays as a FULL charge of the reservation.
//
// Boot-time replay rebuilds per-dataset spent ε. The rules are
// deliberately one-sided — recovery may over-charge, never refund:
//   * commit → charge the committed actual;
//   * abort → charge the full reservation;
//   * reservation with no resolution (in-flight at crash) → charge the
//     full reservation;
//   * a torn tail (partial frame / CRC mismatch from a crash mid-write)
//     is truncated at the last valid frame — but an unknown record TYPE
//     under a valid CRC refuses recovery (version skew: a newer writer's
//     records must not be silently dropped).
//
// Fsync policy (--fsync): kAlways syncs every record; kCommit (default)
// syncs at commit/abort — an acked query is durable, because syncing the
// commit record also flushes its reserve record; kNever leaves
// durability to the OS (tests/throughput).
//
// A failed append self-heals by truncating back to the last good offset,
// so one ENOSPC/torn write cannot poison later appends; if even the
// truncation fails, the WAL refuses all further appends (fail closed).
#ifndef PRIVBASIS_STORE_WAL_H_
#define PRIVBASIS_STORE_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "engine/accountant.h"
#include "store/io.h"

namespace privbasis::store {

/// When the WAL reaches the platter. See file comment.
enum class FsyncMode { kAlways, kCommit, kNever };

/// Parses "always"/"commit"/"never" (the --fsync flag).
Result<FsyncMode> ParseFsyncMode(const std::string& name);

/// One decoded WAL record (the golden-file tests encode/decode these
/// byte-exactly).
struct WalRecord {
  enum class Type : uint8_t { kReserve = 1, kCommit = 2, kAbort = 3 };
  Type type = Type::kReserve;
  uint64_t txn = 0;
  /// kReserve: the reservation; kCommit: the actual spend.
  double epsilon = 0.0;
  std::string dataset;  // kReserve/kCommit
  std::string label;    // kReserve/kCommit
};

/// Record payload bytes (no frame header).
std::string EncodeWalRecord(const WalRecord& record);

/// Wraps a payload in the length+CRC frame header.
std::string EncodeWalFrame(std::string_view payload);

/// Decodes a payload produced by EncodeWalRecord. Unknown types fail
/// with kFailedPrecondition (version skew), malformed bytes with
/// kInvalidArgument.
Result<WalRecord> DecodeWalRecord(std::string_view payload);

/// What replay reconstructed for one dataset ledger.
struct WalRecoveredLedger {
  double spent = 0.0;
  std::vector<Accountant::Entry> entries;
};

struct WalReplay {
  /// dataset id → recovered committed ledger.
  std::map<std::string, WalRecoveredLedger> ledgers;
  uint64_t next_txn = 1;
  uint64_t frames = 0;          ///< valid frames replayed
  uint64_t in_flight = 0;       ///< crash-aborted open reservations
  bool truncated_tail = false;  ///< torn bytes were dropped at open
};

class BudgetWal {
 public:
  /// Opens (creating if absent) and replays `path`. A torn tail is
  /// truncated at the last valid frame; a header from a different
  /// format version refuses with kFailedPrecondition.
  static Result<std::unique_ptr<BudgetWal>> Open(const std::string& path,
                                                 FsyncMode mode);

  /// The replay performed by Open().
  const WalReplay& recovered() const { return replay_; }

  /// Appends + (per policy) syncs one record. AppendReserve assigns and
  /// returns the transaction id. Thread-safe; one WAL serves every
  /// dataset ledger in the state dir.
  Result<uint64_t> AppendReserve(const std::string& dataset, double epsilon,
                                 const std::string& label);
  Status AppendCommit(uint64_t txn, const std::string& dataset,
                      double actual, const std::string& label);
  Status AppendAbort(uint64_t txn);

 private:
  BudgetWal(AppendFile file, FsyncMode mode, WalReplay replay,
            uint64_t good_size)
      : file_(std::move(file)),
        mode_(mode),
        replay_(std::move(replay)),
        good_size_(good_size),
        next_txn_(replay_.next_txn) {}

  /// Appends one frame, self-healing a failed write by truncating back
  /// to the last good offset. Callers hold mu_ across frame encode +
  /// append so records are assigned and written in txn order.
  Status AppendFrame(const std::string& frame, bool is_sync_point)
      PB_REQUIRES(mu_);

  Mutex mu_;
  AppendFile file_ PB_GUARDED_BY(mu_);
  const FsyncMode mode_;
  const WalReplay replay_;
  uint64_t good_size_ PB_GUARDED_BY(mu_) = 0;  ///< bytes known fully written
  uint64_t next_txn_ PB_GUARDED_BY(mu_) = 1;
  bool poisoned_ PB_GUARDED_BY(mu_) =
      false;  ///< truncation after a failed append failed too
};

/// The per-dataset AccountantJournal adapter: binds one dataset id to
/// the shared WAL. Attach via Accountant::AttachJournal.
class WalAccountantJournal : public AccountantJournal {
 public:
  WalAccountantJournal(std::shared_ptr<BudgetWal> wal, std::string dataset)
      : wal_(std::move(wal)), dataset_(std::move(dataset)) {}

  Result<uint64_t> Reserve(double epsilon, const std::string& label) override {
    return wal_->AppendReserve(dataset_, epsilon, label);
  }
  Status Commit(uint64_t txn, double actual,
                const std::string& label) override {
    return wal_->AppendCommit(txn, dataset_, actual, label);
  }
  Status Abort(uint64_t txn) override { return wal_->AppendAbort(txn); }

 private:
  std::shared_ptr<BudgetWal> wal_;
  std::string dataset_;
};

}  // namespace privbasis::store

#endif  // PRIVBASIS_STORE_WAL_H_
