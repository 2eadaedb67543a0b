// Accountant: the per-dataset privacy-budget ledger behind the Engine.
//
// Sequential composition: mechanisms satisfying ε1-, ..., εm-DP compose to
// (Σεi)-DP, so a dataset served by many queries is protected exactly when
// every release draws its ε through one shared ledger. The Accountant is
// that ledger: queries *reserve* budget up front via an RAII BudgetLease,
// run their mechanism, and *commit* the amount actually consumed (≤ the
// reservation — e.g. an amplified run commits the end-to-end ε, a PB run
// with unspent α-slack commits the metered sum). A reservation that would
// overdraw the budget fails with StatusCode::kBudgetExhausted and nothing
// is recorded.
//
// Fail-safe semantics: a lease destroyed without Commit() charges its FULL
// reservation (labelled "(aborted)"). A mechanism that dies halfway may
// already have observed noise, so rolling the reservation back could
// silently under-count; over-counting is the only safe default for a
// privacy ledger.
//
// Thread-safe: concurrent Engine::Run calls on one shared Dataset race on
// Acquire/Commit only through the internal mutex.
//
// Durability: an Accountant may carry an AccountantJournal (the store
// layer's write-ahead ledger adapter). With a journal attached, every
// reservation/commit/abort is made durable BEFORE the in-memory ledger
// moves — a journal write failure fails the operation closed (the query
// errors; the guarantee never weakens). Restore() seeds the committed
// spend replayed from the journal at boot.
#ifndef PRIVBASIS_ENGINE_ACCOUNTANT_H_
#define PRIVBASIS_ENGINE_ACCOUNTANT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "dp/budget.h"

namespace privbasis {

class BudgetLease;

/// Durable backing for an Accountant's ledger events (implemented by the
/// store layer's WAL; engine code sees only this interface). All three
/// calls are invoked under the Accountant's mutex, so implementations
/// need not serialize per-accountant — but one journal instance may back
/// many accountants, so cross-accountant appends must still be safe.
class AccountantJournal {
 public:
  virtual ~AccountantJournal() = default;
  /// Durably records a reservation; returns the transaction id later
  /// commits/aborts refer to. Failure (ENOSPC/EIO) must leave no durable
  /// trace requirement on the caller: the reservation simply never
  /// happened.
  virtual Result<uint64_t> Reserve(double epsilon,
                                   const std::string& label) = 0;
  /// Durably finalizes `txn` at `actual` ε (fsynced per policy before
  /// returning OK — an OK here is the durability point of the query).
  virtual Status Commit(uint64_t txn, double actual,
                        const std::string& label) = 0;
  /// Durably marks `txn` aborted (replays as a full charge). Best
  /// effort: replay treats a missing abort identically (in-flight at
  /// crash = full charge), so a failed append loses nothing.
  virtual Status Abort(uint64_t txn) = 0;
};

/// Thread-safe ε ledger with reserve/commit semantics. See file comment.
class Accountant {
 public:
  /// One committed expenditure — the same shape the run-scoped
  /// PrivacyAccountant records, so mechanism breakdowns pass through
  /// without conversion.
  using Entry = PrivacyAccountant::Entry;

  /// Sentinel budget: track every spend but never refuse one.
  static constexpr double kUnlimited =
      std::numeric_limits<double>::infinity();

  /// `total_epsilon` must be > 0 (kUnlimited allowed).
  explicit Accountant(double total_epsilon);

  Accountant(const Accountant&) = delete;
  Accountant& operator=(const Accountant&) = delete;

  /// Reserves `epsilon` of the remaining budget for one query. Fails with
  /// kBudgetExhausted (recording nothing) when spent + outstanding
  /// reservations + epsilon would exceed the total beyond a small
  /// floating-point tolerance; fails with kInvalidArgument when epsilon is
  /// not positive and finite. With a journal attached, the reservation is
  /// journaled before it is granted — a journal write failure (ENOSPC →
  /// kResourceExhausted, else kIoError) refuses the query with the
  /// in-memory ledger untouched.
  Result<BudgetLease> Acquire(double epsilon, std::string label);

  /// Attaches the durable journal. Call before the accountant is shared
  /// (boot/registration time); not thread-safe against in-flight leases.
  void AttachJournal(std::shared_ptr<AccountantJournal> journal);

  /// Seeds the committed spend replayed from a journal at boot. Call
  /// before serving; fails if anything was already spent or reserved.
  Status Restore(double spent, std::vector<Entry> entries);

  double total_epsilon() const { return total_; }
  /// Committed spend (excludes outstanding reservations).
  double spent_epsilon() const;
  /// Budget not yet committed or reserved.
  double remaining_epsilon() const;
  /// Outstanding (acquired but not yet committed) reservations.
  double reserved_epsilon() const;
  /// Snapshot of the committed ledger, in commit order.
  std::vector<Entry> ledger() const;

 private:
  friend class BudgetLease;

  // Lease back-end (takes mu_ itself). `actual` must be ≤ reserved
  // (+tolerance); `breakdown` itemizes the spend (empty = one entry of
  // `actual` under `label`). `txn` is the journal transaction (0 when no
  // journal); `aborted` selects the journal's Abort record. A journal
  // commit failure charges the FULL reservation (never less than what
  // replay would reconstruct) and returns the journal's error.
  Status CommitReservation(double reserved, double actual,
                           const std::string& label,
                           std::vector<Entry> breakdown, uint64_t txn,
                           bool aborted) PB_EXCLUDES(mu_);

  mutable Mutex mu_;
  const double total_;
  double spent_ PB_GUARDED_BY(mu_) = 0.0;
  double reserved_ PB_GUARDED_BY(mu_) = 0.0;
  std::vector<Entry> entries_ PB_GUARDED_BY(mu_);
  std::shared_ptr<AccountantJournal> journal_ PB_GUARDED_BY(mu_);
};

/// RAII handle over one reservation. Move-only. Commit() finalizes the
/// actual spend; destruction without Commit() charges the full
/// reservation (see the fail-safe note above).
class BudgetLease {
 public:
  BudgetLease(BudgetLease&& other) noexcept;
  BudgetLease& operator=(BudgetLease&& other) noexcept;
  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;
  ~BudgetLease();

  double reserved() const { return reserved_; }

  /// Commits `actual` (≤ reserved + tolerance, clamped to the
  /// reservation) and releases the unspent remainder. `breakdown`
  /// optionally itemizes the spend in the ledger; its ε values should sum
  /// to `actual`. Idempotent: only the first call has an effect. With a
  /// journal attached, a failed durable commit returns the journal's
  /// error AND charges the full reservation in memory — the query must
  /// fail, the ledger must not under-count.
  Status Commit(double actual, std::vector<Accountant::Entry> breakdown = {});

 private:
  friend class Accountant;
  BudgetLease(Accountant* accountant, double reserved, std::string label,
              uint64_t txn);

  Accountant* accountant_;  // null after move-out or commit
  double reserved_ = 0.0;
  std::string label_;
  uint64_t txn_ = 0;  // journal transaction id (0 = unjournaled)
};

}  // namespace privbasis

#endif  // PRIVBASIS_ENGINE_ACCOUNTANT_H_
