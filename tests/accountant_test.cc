// The Engine's privacy-budget ledger: reserve/commit semantics, overdraft
// refusal, fail-safe abort charging, and thread safety.
#include "engine/accountant.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

namespace privbasis {
namespace {

TEST(AccountantTest, AcquireCommitTracksSpend) {
  Accountant accountant(1.0);
  EXPECT_EQ(accountant.total_epsilon(), 1.0);
  {
    auto lease = accountant.Acquire(0.4, "q1");
    ASSERT_TRUE(lease.ok());
    EXPECT_NEAR(accountant.reserved_epsilon(), 0.4, 1e-12);
    EXPECT_EQ(accountant.spent_epsilon(), 0.0);
    lease->Commit(0.4);
  }
  EXPECT_NEAR(accountant.spent_epsilon(), 0.4, 1e-12);
  EXPECT_EQ(accountant.reserved_epsilon(), 0.0);
  EXPECT_NEAR(accountant.remaining_epsilon(), 0.6, 1e-12);
  auto ledger = accountant.ledger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].label, "q1");
  EXPECT_NEAR(ledger[0].epsilon, 0.4, 1e-12);
}

TEST(AccountantTest, CommitLessThanReservedReleasesRemainder) {
  Accountant accountant(1.0);
  auto lease = accountant.Acquire(0.5, "amplified");
  ASSERT_TRUE(lease.ok());
  lease->Commit(0.3);  // e.g. an amplified run's end-to-end ε < target
  EXPECT_NEAR(accountant.spent_epsilon(), 0.3, 1e-12);
  EXPECT_NEAR(accountant.remaining_epsilon(), 0.7, 1e-12);
}

TEST(AccountantTest, OverdraftReturnsBudgetExhausted) {
  Accountant accountant(1.0);
  auto first = accountant.Acquire(0.8, "a");
  ASSERT_TRUE(first.ok());
  // Outstanding reservations count against the budget.
  auto second = accountant.Acquire(0.3, "b");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kBudgetExhausted);
  first->Commit(0.1);
  // After the small commit the headroom is back.
  auto third = accountant.Acquire(0.3, "c");
  EXPECT_TRUE(third.ok());
  third->Commit(third->reserved());
  EXPECT_NEAR(accountant.spent_epsilon(), 0.4, 1e-12);
}

TEST(AccountantTest, RejectsNonPositiveOrInfiniteReservation) {
  Accountant accountant(1.0);
  EXPECT_EQ(accountant.Acquire(0.0, "zero").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant.Acquire(-1.0, "neg").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant
                .Acquire(std::numeric_limits<double>::infinity(), "inf")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(AccountantTest, AbandonedLeaseChargesFullReservation) {
  // Fail-safe: a mechanism that died mid-run may have observed noise, so
  // the uncommitted lease must charge its whole reservation.
  Accountant accountant(1.0);
  { auto lease = accountant.Acquire(0.6, "crashed"); ASSERT_TRUE(lease.ok()); }
  EXPECT_NEAR(accountant.spent_epsilon(), 0.6, 1e-12);
  auto ledger = accountant.ledger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].label, "crashed (aborted)");
}

TEST(AccountantTest, CommitIsIdempotent) {
  Accountant accountant(1.0);
  auto lease = accountant.Acquire(0.5, "q");
  ASSERT_TRUE(lease.ok());
  lease->Commit(0.5);
  lease->Commit(0.5);  // no effect
  EXPECT_NEAR(accountant.spent_epsilon(), 0.5, 1e-12);
  EXPECT_EQ(accountant.ledger().size(), 1u);
}

TEST(AccountantTest, BreakdownEntriesArePrefixedWithLeaseLabel) {
  Accountant accountant(1.0);
  auto lease = accountant.Acquire(1.0, "pb");
  ASSERT_TRUE(lease.ok());
  lease->Commit(1.0, {{"GetLambda", 0.1}, {"BasisFreq", 0.9}});
  auto ledger = accountant.ledger();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].label, "pb/GetLambda");
  EXPECT_EQ(ledger[1].label, "pb/BasisFreq");
  EXPECT_NEAR(accountant.spent_epsilon(), 1.0, 1e-12);
}

TEST(AccountantTest, UnlimitedBudgetTracksButNeverRefuses) {
  Accountant accountant(Accountant::kUnlimited);
  for (int i = 0; i < 100; ++i) {
    auto lease = accountant.Acquire(10.0, "q");
    ASSERT_TRUE(lease.ok());
    lease->Commit(lease->reserved());
  }
  EXPECT_NEAR(accountant.spent_epsilon(), 1000.0, 1e-9);
  EXPECT_EQ(accountant.remaining_epsilon(),
            std::numeric_limits<double>::infinity());
}

TEST(AccountantTest, ConcurrentAcquiresNeverOversubscribe) {
  // 32 threads each try to take 0.1 from a budget of 1.0: exactly 10 can
  // ever succeed regardless of interleaving.
  Accountant accountant(1.0);
  std::atomic<int> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(32);
  for (int t = 0; t < 32; ++t) {
    threads.emplace_back([&accountant, &granted] {
      auto lease = accountant.Acquire(0.1, "t");
      if (lease.ok()) {
        lease->Commit(lease->reserved());
        granted.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), 10);
  EXPECT_NEAR(accountant.spent_epsilon(), 1.0, 1e-9);
}

/// In-memory journal with switchable failures, standing in for the store
/// layer's WAL. Counters need no locks: the Accountant calls all three
/// methods under its own mutex.
class FakeJournal : public AccountantJournal {
 public:
  bool fail_reserve = false;
  bool fail_commit = false;
  int reserves = 0;
  int commits = 0;
  int aborts = 0;

  Result<uint64_t> Reserve(double, const std::string&) override {
    if (fail_reserve) return Status::ResourceExhausted("journal: disk full");
    ++reserves;
    return next_txn_++;
  }
  Status Commit(uint64_t, double, const std::string&) override {
    if (fail_commit) return Status::IoError("journal: write failed");
    ++commits;
    return Status::OK();
  }
  Status Abort(uint64_t) override {
    ++aborts;
    return Status::OK();
  }

 private:
  uint64_t next_txn_ = 1;
};

TEST(AccountantTest, JournalReserveFailureRefusesWithLedgerUntouched) {
  Accountant accountant(1.0);
  auto journal = std::make_shared<FakeJournal>();
  accountant.AttachJournal(journal);

  journal->fail_reserve = true;
  auto refused = accountant.Acquire(0.5, "q");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // An unjournaled reservation never happened: nothing spent, nothing
  // reserved, nothing in the ledger.
  EXPECT_EQ(accountant.spent_epsilon(), 0.0);
  EXPECT_EQ(accountant.reserved_epsilon(), 0.0);
  EXPECT_TRUE(accountant.ledger().empty());

  journal->fail_reserve = false;
  auto granted = accountant.Acquire(0.5, "q");
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->Commit(granted->reserved()).ok());
  EXPECT_EQ(journal->commits, 1);
}

TEST(AccountantTest, JournalCommitFailureChargesFullReservation) {
  Accountant accountant(1.0);
  auto journal = std::make_shared<FakeJournal>();
  accountant.AttachJournal(journal);

  auto lease = accountant.Acquire(0.75, "q");
  ASSERT_TRUE(lease.ok());
  journal->fail_commit = true;
  const Status failed = lease->Commit(0.25);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The durable ledger holds an unresolved reservation that replay will
  // charge in full — the in-memory ledger must match it, not the smaller
  // actual the mechanism metered.
  EXPECT_EQ(accountant.spent_epsilon(), 0.75);
  EXPECT_EQ(accountant.reserved_epsilon(), 0.0);
  auto ledger = accountant.ledger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].label, "q (journal failed)");
}

TEST(AccountantTest, JournalRecordsAbortOnLeaseDrop) {
  Accountant accountant(1.0);
  auto journal = std::make_shared<FakeJournal>();
  accountant.AttachJournal(journal);
  { auto lease = accountant.Acquire(0.5, "dies"); ASSERT_TRUE(lease.ok()); }
  EXPECT_EQ(journal->reserves, 1);
  EXPECT_EQ(journal->aborts, 1);
  EXPECT_EQ(journal->commits, 0);
  EXPECT_EQ(accountant.spent_epsilon(), 0.5);
}

TEST(AccountantTest, RestoreSeedsSpendOnceAndOnlyBeforeActivity) {
  Accountant accountant(1.0);
  ASSERT_TRUE(accountant.Restore(0.5, {{"boot", 0.5}}).ok());
  EXPECT_EQ(accountant.spent_epsilon(), 0.5);
  ASSERT_EQ(accountant.ledger().size(), 1u);
  EXPECT_EQ(accountant.ledger()[0].label, "boot");
  // A second restore would double-count.
  EXPECT_EQ(accountant.Restore(0.1, {}).code(),
            StatusCode::kFailedPrecondition);
  // And restoring over live activity is refused too.
  Accountant active(1.0);
  auto lease = active.Acquire(0.2, "q");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(active.Restore(0.1, {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(active.Restore(-1.0, {}).code(),
            StatusCode::kInvalidArgument);
}

TEST(AccountantTest, ConcurrentReserveAbortFuzzBalancesExactly) {
  // Dyadic ε values (k/1024 with small k) sum EXACTLY in binary64, so
  // this test can demand bit-exact bookkeeping — reserved must return to
  // precisely zero and spent must equal the per-thread expectation, no
  // tolerance — while threads race commits, partial commits, and drops.
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  Accountant accountant(Accountant::kUnlimited);
  auto journal = std::make_shared<FakeJournal>();
  accountant.AttachJournal(journal);

  std::atomic<bool> done{false};
  std::thread monitor([&accountant, &done] {
    // Committed spend is append-only: it must never regress mid-race.
    double last = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      const double spent = accountant.spent_epsilon();
      EXPECT_GE(spent, last);
      last = spent;
    }
  });

  std::vector<double> expected(kThreads, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&accountant, &expected, t] {
      std::mt19937_64 rng(1000 * t + 7);
      for (int i = 0; i < kIters; ++i) {
        const double eps = (1.0 + static_cast<double>(rng() % 16)) / 1024.0;
        auto lease = accountant.Acquire(eps, "fuzz");
        ASSERT_TRUE(lease.ok());
        switch (rng() % 3) {
          case 0:
            ASSERT_TRUE(lease->Commit(lease->reserved()).ok());
            expected[t] += eps;
            break;
          case 1:
            ASSERT_TRUE(lease->Commit(eps / 2.0).ok());
            expected[t] += eps / 2.0;
            break;
          default:
            // Drop the lease: fail-safe abort charges in full.
            expected[t] += eps;
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  done.store(true);
  monitor.join();

  double expected_total = 0.0;
  for (const double e : expected) expected_total += e;
  EXPECT_EQ(accountant.reserved_epsilon(), 0.0);           // exactly
  EXPECT_EQ(accountant.spent_epsilon(), expected_total);   // exactly
  EXPECT_EQ(accountant.ledger().size(),
            static_cast<size_t>(kThreads * kIters));
  EXPECT_EQ(journal->reserves, kThreads * kIters);
  EXPECT_EQ(journal->commits + journal->aborts, kThreads * kIters);
}

}  // namespace
}  // namespace privbasis
