// The Engine facade: central validation, budget metering across repeated
// queries, cache transparency (warm == cold, bit for bit), and
// concurrency determinism — including once-only cold builds under the
// per-cache-entry locking.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"

#include "data/synthetic.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

std::shared_ptr<Dataset> SmallDataset(double total_epsilon =
                                          Accountant::kUnlimited) {
  return Dataset::Create(MakeRandomDb({.seed = 7, .num_transactions = 200}),
                         {.total_epsilon = total_epsilon});
}

bool SameRelease(const std::vector<NoisyItemset>& a,
                 const std::vector<NoisyItemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].items == b[i].items) || a[i].noisy_count != b[i].noisy_count) {
      return false;
    }
  }
  return true;
}

TEST(QuerySpecTest, ValidateCentralizesOptionChecks) {
  EXPECT_FALSE(QuerySpec().WithTopK(0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithEpsilon(0.0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithEpsilon(-1.0).Validate().ok());
  EXPECT_FALSE(
      QuerySpec()
          .WithEpsilon(std::numeric_limits<double>::infinity())
          .Validate()
          .ok());
  EXPECT_FALSE(QuerySpec().WithThreshold(1.5, 10).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithThreshold(0.1, 0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithAmplification(0.0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithAmplification(1.5).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithRules(0.0).Validate().ok());

  QuerySpec bad_alpha;
  bad_alpha.pb.alpha1 = 0.5;
  bad_alpha.pb.alpha2 = 0.5;
  bad_alpha.pb.alpha3 = 0.5;
  EXPECT_FALSE(bad_alpha.Validate().ok());
  QuerySpec zero_alpha;
  zero_alpha.pb.alpha1 = 0.0;
  EXPECT_FALSE(zero_alpha.Validate().ok());
  QuerySpec bad_eta;
  bad_eta.pb.eta = 0.9;
  EXPECT_FALSE(bad_eta.Validate().ok());
  QuerySpec nan_theta;
  nan_theta.theta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(nan_theta.Validate().ok());

  QuerySpec tf;
  tf.WithMethod(QueryMethod::kTruncatedFrequency);
  tf.tf.m = 0;
  EXPECT_FALSE(tf.Validate().ok());
  tf.tf.m = 2;
  EXPECT_TRUE(tf.Validate().ok());
  // Threshold mode and amplification are PrivBasis-only.
  EXPECT_FALSE(QuerySpec(tf).WithThreshold(0.1, 10).Validate().ok());
  EXPECT_FALSE(QuerySpec(tf).WithAmplification(0.5).Validate().ok());

  EXPECT_TRUE(QuerySpec().Validate().ok());
  EXPECT_TRUE(QuerySpec().WithThreshold(0.1, 100).Validate().ok());
}

TEST(EngineTest, InvalidSpecRejectedBeforeAnySpend) {
  auto dataset = SmallDataset(1.0);
  auto release = Engine::Run(*dataset, QuerySpec().WithTopK(0));
  EXPECT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
}

TEST(EngineTest, BasisLengthOutsideBasisFreqCapRejectedBeforeAnySpend) {
  auto dataset = SmallDataset(1.0);
  const size_t cap = PrivBasisOptions().basis_freq.max_basis_length;
  std::vector<QuerySpec> bad(5, QuerySpec().WithTopK(300));
  bad[0].pb.max_basis_length = 1;
  bad[1].pb.max_basis_length = 2;
  bad[2].pb.max_basis_length = cap + 1;
  bad[3].pb.max_basis_length = 64;
  bad[4].pb.single_basis_lambda_cap = cap + 1;
  for (const QuerySpec& spec : bad) {
    auto release = Engine::Run(*dataset, spec);
    ASSERT_FALSE(release.ok());
    EXPECT_EQ(release.status().code(), StatusCode::kInvalidArgument)
        << release.status();
    EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
    EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
    EXPECT_TRUE(dataset->accountant()->ledger().empty());
  }
  QuerySpec edges = QuerySpec().WithTopK(10);
  edges.pb.max_basis_length = 3;
  edges.pb.single_basis_lambda_cap = cap;
  EXPECT_TRUE(edges.Validate().ok());
  edges.pb.max_basis_length = cap;
  EXPECT_TRUE(edges.Validate().ok());
}

TEST(EngineTest, BudgetExhaustionAcrossRepeatedQueries) {
  auto dataset = SmallDataset(/*total_epsilon=*/1.0);
  QuerySpec spec = QuerySpec().WithTopK(5).WithEpsilon(0.4);
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(1)).ok());
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(2)).ok());
  // Third 0.4 query would overdraw 1.0: refused with kBudgetExhausted
  // before any noise is drawn, and nothing is recorded.
  auto third = Engine::Run(*dataset, QuerySpec(spec).WithSeed(3));
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_NEAR(dataset->accountant()->spent_epsilon(), 0.8, 1e-9);
  // A smaller query still fits.
  auto small = Engine::Run(
      *dataset, QuerySpec(spec).WithEpsilon(0.2).WithSeed(4));
  EXPECT_TRUE(small.ok());
  EXPECT_NEAR(dataset->accountant()->remaining_epsilon(), 0.0, 1e-9);
}

TEST(EngineTest, PreNoiseFailureChargesNothing) {
  // A deterministic setup failure (TF preprocessing: fewer than k
  // itemsets of length ≤ m) happens before the budget reservation, so
  // it must not consume any of a finite dataset budget.
  auto dataset = Dataset::Create(MakeDb({{0, 1}, {0, 1}, {1}}),
                                 {.total_epsilon = 1.0});
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kTruncatedFrequency)
      .WithTopK(1000)
      .WithEpsilon(0.5);
  spec.tf.m = 1;
  auto release = Engine::Run(*dataset, spec);
  EXPECT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());
  // The budget is fully available for a valid follow-up query.
  auto ok = Engine::Run(
      *dataset, QuerySpec().WithTopK(2).WithEpsilon(1.0).WithSeed(1));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineTest, EpsilonSpentComesFromLedger) {
  auto dataset = SmallDataset();
  auto release = Engine::Run(
      *dataset, QuerySpec().WithTopK(10).WithEpsilon(0.8).WithSeed(5));
  ASSERT_TRUE(release.ok());
  EXPECT_GT(release->epsilon_spent, 0.0);
  EXPECT_LE(release->epsilon_spent, 0.8 + 1e-9);
  // The release's number IS the ledger's number.
  EXPECT_NEAR(release->epsilon_spent, dataset->accountant()->spent_epsilon(),
              1e-12);
  // And the itemized entries sum to it.
  double itemized = 0.0;
  for (const auto& entry : dataset->accountant()->ledger()) {
    itemized += entry.epsilon;
  }
  EXPECT_NEAR(itemized, release->epsilon_spent, 1e-12);
}

TEST(EngineTest, AmplifiedSpendEqualsMeteredSpend) {
  auto dataset = SmallDataset();
  const double target = 1.0;
  auto release = Engine::Run(*dataset, QuerySpec()
                                           .WithTopK(10)
                                           .WithEpsilon(target)
                                           .WithAmplification(0.5)
                                           .WithSeed(9));
  ASSERT_TRUE(release.ok()) << release.status();
  // End-to-end guarantee ≤ target, and reported == committed.
  EXPECT_LE(release->epsilon_spent, target + 1e-9);
  EXPECT_GT(release->epsilon_spent, 0.0);
  EXPECT_NEAR(release->epsilon_spent, dataset->accountant()->spent_epsilon(),
              1e-12);
}

// A subsampled query counts on its own subsample, whatever executor the
// spec carries: the dataset's executor counts the full database, while
// the ledger charges only the amplified ε.
TEST(EngineTest, SubsampledQueryIgnoresInheritedExecutor) {
  auto dataset = Dataset::FromProfile(SyntheticProfile::Kosarak(0.05), 42);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  const std::shared_ptr<const CountExecutor> exec =
      (*dataset)->EnsureCountExecutor();
  for (const uint64_t seed : {1, 2, 3}) {
    QuerySpec spec = QuerySpec()
                         .WithTopK(50)
                         .WithEpsilon(1.0)
                         .WithAmplification(0.25)
                         .WithSeed(seed);
    auto plain = Engine::Run(**dataset, spec);
    spec.pb.exec = exec.get();
    auto inherited = Engine::Run(**dataset, spec);
    ASSERT_TRUE(plain.ok()) << plain.status();
    ASSERT_TRUE(inherited.ok()) << inherited.status();
    EXPECT_TRUE(SameRelease(plain->itemsets, inherited->itemsets))
        << "seed " << seed;
    EXPECT_EQ(plain->lambda, inherited->lambda);
    EXPECT_EQ(plain->lambda2, inherited->lambda2);
    EXPECT_EQ(plain->epsilon_spent, inherited->epsilon_spent);
  }
  // The subsample's executor only scans.
  EXPECT_EQ((*dataset)->cache_counters().index_builds, 0u);
}

// A cold k=300 query on a fresh handle builds no VerticalIndex: at this
// shape the pair scan is the smaller pass, so the executor never fetches
// the index.
TEST(EngineTest, ColdQueryBuildsNoIndex) {
  auto dataset = Dataset::FromProfile(SyntheticProfile::Kosarak(0.05), 42);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto release = Engine::Run(
      **dataset, QuerySpec().WithTopK(300).WithEpsilon(1.0).WithSeed(1));
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_GT(release->lambda2, 0u) << "the query counted no pairs";
  EXPECT_EQ((*dataset)->cache_counters().index_builds, 0u);
}

TEST(EngineTest, WarmCacheResultsIdenticalToColdCache) {
  TransactionDatabase db = MakeRandomDb({.seed = 11, .num_transactions = 300});
  QuerySpec spec = QuerySpec().WithTopK(12).WithEpsilon(1.0).WithSeed(77);

  // Cold: a fresh handle per run.
  auto cold = Engine::Run(*Dataset::Create(db), spec);
  ASSERT_TRUE(cold.ok());

  // Warm: one handle, second query hits every cache.
  auto dataset = Dataset::Create(db);
  auto first = Engine::Run(*dataset, spec);
  ASSERT_TRUE(first.ok());
  auto counters_after_first = dataset->cache_counters();
  auto warm = Engine::Run(*dataset, spec);
  ASSERT_TRUE(warm.ok());
  auto counters_after_second = dataset->cache_counters();

  // The second run rebuilt nothing...
  EXPECT_EQ(counters_after_second.margin_mines,
            counters_after_first.margin_mines);
  EXPECT_EQ(counters_after_second.index_builds,
            counters_after_first.index_builds);
  // ...and produced the bit-identical release.
  EXPECT_TRUE(SameRelease(cold->itemsets, warm->itemsets));
  EXPECT_TRUE(SameRelease(first->itemsets, warm->itemsets));
  EXPECT_EQ(cold->lambda, warm->lambda);
  EXPECT_EQ(cold->lambda2, warm->lambda2);
}

TEST(EngineTest, ConcurrentRunsBitIdenticalToSequential) {
  auto dataset = SmallDataset();
  constexpr int kQueries = 8;

  // Sequential reference, one seed per query.
  std::vector<std::vector<NoisyItemset>> sequential(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    auto release = Engine::Run(
        *dataset,
        QuerySpec().WithTopK(10).WithEpsilon(1.0).WithSeed(100 + q));
    ASSERT_TRUE(release.ok());
    sequential[q] = std::move(release->itemsets);
  }

  // Same queries, all at once, on a second (cold) shared handle.
  auto shared = SmallDataset();
  std::vector<std::vector<NoisyItemset>> concurrent(kQueries);
  std::vector<Status> statuses(kQueries);
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&shared, &concurrent, &statuses, q] {
      auto release = Engine::Run(
          *shared,
          QuerySpec().WithTopK(10).WithEpsilon(1.0).WithSeed(100 + q));
      statuses[q] = release.status();
      if (release.ok()) concurrent[q] = std::move(release->itemsets);
    });
  }
  for (auto& thread : threads) thread.join();

  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(statuses[q].ok()) << statuses[q];
    EXPECT_TRUE(SameRelease(sequential[q], concurrent[q])) << "query " << q;
  }
  // All eight queries were metered.
  EXPECT_NEAR(shared->accountant()->spent_epsilon(),
              dataset->accountant()->spent_epsilon(), 1e-9);
}

TEST(EngineTest, ExternalRngOverloadMatchesSeededRun) {
  // The advanced overload threading a caller-owned Rng must produce the
  // bit-identical release a seeded run does — for every spec variant
  // (the contract the sweep harness and statistical tests rely on).
  TransactionDatabase db = MakeRandomDb({.seed = 13, .num_transactions = 250});
  auto dataset = Dataset::Create(db);
  const QuerySpec variants[] = {
      QuerySpec().WithTopK(15).WithEpsilon(1.0).WithSeed(21),
      QuerySpec().WithThreshold(0.3, 40).WithEpsilon(1.0).WithSeed(23),
      QuerySpec().WithTopK(15).WithEpsilon(1.0).WithAmplification(0.6)
          .WithSeed(25),
  };
  for (const QuerySpec& spec : variants) {
    Rng rng(spec.seed);
    auto via_rng = Engine::Run(*dataset, spec, rng);
    ASSERT_TRUE(via_rng.ok()) << via_rng.status();
    auto via_seed = Engine::Run(*dataset, spec);
    ASSERT_TRUE(via_seed.ok()) << via_seed.status();
    EXPECT_TRUE(SameRelease(via_rng->itemsets, via_seed->itemsets));
    EXPECT_NEAR(via_rng->epsilon_spent, via_seed->epsilon_spent, 1e-12);
  }
}

TEST(DatasetTest, ConcurrentColdBuildsBuildEachEntryOnce) {
  // Per-cache-entry locking: many threads first-touching a fresh handle
  // across ALL cache kinds at once must build every entry exactly once
  // (no double build on one entry, no lost build), and every thread must
  // read the same values.
  TransactionDatabase db = MakeRandomDb({.seed = 41, .num_transactions = 200});
  auto dataset = Dataset::Create(db);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<uint64_t> margins(kThreads);
  std::vector<Status> statuses(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dataset, &margins, &statuses, t] {
      dataset->Stats();
      if (dataset->Index() == nullptr) {
        statuses[t] = Status::Internal("null index");
        return;
      }
      auto margin = dataset->MarginSupport(10, 1.0);
      if (!margin.ok()) {
        statuses[t] = margin.status();
        return;
      }
      margins[t] = *margin;
      auto truth = dataset->Truth(12);
      if (!truth.ok()) statuses[t] = truth.status();
      TfOptions tf;
      tf.m = 2;
      auto runner = dataset->Tf(8, tf);
      if (!runner.ok()) statuses[t] = runner.status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t];
    EXPECT_EQ(margins[t], margins[0]);
  }
  const auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.stats_builds, 1u);
  EXPECT_EQ(counters.index_builds, 1u);
  EXPECT_EQ(counters.margin_mines, 1u);
  EXPECT_EQ(counters.truth_mines, 1u);
  EXPECT_EQ(counters.tf_builds, 1u);
}

TEST(EngineTest, ThresholdModeFiltersByNoisyFrequency) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1, 2}, {0, 1}, {0}, {1, 2},
                                   {0, 1, 2}, {0, 2}, {0, 1}});
  auto dataset = Dataset::Create(db);
  const double theta = 0.3;
  auto release = Engine::Run(
      *dataset,
      QuerySpec().WithThreshold(theta, 40).WithEpsilon(300.0).WithSeed(3));
  ASSERT_TRUE(release.ok());
  ASSERT_FALSE(release->itemsets.empty());
  const double theta_count = theta * static_cast<double>(8);
  for (const auto& itemset : release->itemsets) {
    EXPECT_GE(itemset.noisy_count, theta_count);
  }
}

TEST(EngineTest, RuleDerivationRidesTheRelease) {
  // Near-exact release at huge ε: rules must connect released subsets.
  TransactionDatabase db = MakeDb(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}, {2}});
  auto dataset = Dataset::Create(db);
  auto release = Engine::Run(*dataset, QuerySpec()
                                           .WithTopK(6)
                                           .WithEpsilon(500.0)
                                           .WithRules(0.5)
                                           .WithSeed(17));
  ASSERT_TRUE(release.ok());
  EXPECT_FALSE(release->rules.empty());
  for (const auto& rule : release->rules) {
    EXPECT_GE(rule.confidence, 0.5);
  }
}

TEST(EngineTest, TfMethodSharesRunnerAcrossQueries) {
  auto dataset = SmallDataset();
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kTruncatedFrequency).WithTopK(8);
  spec.tf.m = 2;
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(1)).ok());
  auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.tf_builds, 1u);
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(2)).ok());
  EXPECT_EQ(dataset->cache_counters().tf_builds, 1u);  // reused
  // A different configuration builds its own runner.
  QuerySpec other = spec;
  other.tf.m = 1;
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(other).WithSeed(3)).ok());
  EXPECT_EQ(dataset->cache_counters().tf_builds, 2u);
}

TEST(EngineTest, PreCancelledQueryChargesNothing) {
  auto dataset = SmallDataset(2.0);
  CancelToken token;
  token.Cancel();
  auto release = Engine::Run(
      *dataset, QuerySpec().WithTopK(10).WithEpsilon(1.0).WithCancel(&token));
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kCancelled);
  // Refused before the reservation: the ledger never saw this query.
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());
  // The identical spec without the token runs normally.
  auto ok = Engine::Run(*dataset, QuerySpec().WithTopK(10).WithEpsilon(1.0));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineTest, DeadlineMidScanChargesFullReservation) {
  auto dataset = SmallDataset(4.0);
  QuerySpec spec = QuerySpec().WithTopK(10).WithEpsilon(1.0);
  // Warm the margin cache so the pre-reservation Prepare step is
  // instant; the deadline must fire INSIDE the post-reservation
  // BasisFreq scan, which the failpoint holds past the deadline.
  ASSERT_TRUE(dataset->MarginSupport(spec.k, spec.pb.eta).ok());
  ASSERT_TRUE(failpoint::Configure("basis_freq_chunk=sleep:800").ok());
  const CancelToken token = CancelToken::AfterMs(200);
  auto release = Engine::Run(*dataset, QuerySpec(spec).WithCancel(&token));
  failpoint::Reset();
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kCancelled)
      << release.status();
  // The token fired after the reservation: fail closed — the FULL
  // reservation is charged (noise may already have been observed) and
  // nothing stays reserved.
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  ASSERT_EQ(dataset->accountant()->ledger().size(), 1u);
  // A later query on the same dataset is unaffected, and the two
  // spends add up in the ledger.
  auto ok = Engine::Run(*dataset, spec);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(),
                   1.0 + ok->epsilon_spent);
}

TEST(EngineTest, DeadlineInsideBasisConstructionChargesFullReservation) {
  auto dataset = SmallDataset(4.0);
  QuerySpec spec = QuerySpec().WithTopK(10).WithEpsilon(1.0);
  spec.pb.single_basis_lambda_cap = 0;  // always build a basis set
  ASSERT_TRUE(dataset->MarginSupport(spec.k, spec.pb.eta).ok());
  // The first construction round sleeps past the deadline; the round's
  // poll must then stop the query before BasisFreq runs.
  ASSERT_TRUE(failpoint::Configure("construct_basis_round=sleep:400").ok());
  const CancelToken token = CancelToken::AfterMs(100);
  auto release = Engine::Run(*dataset, QuerySpec(spec).WithCancel(&token));
  failpoint::Reset();
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kCancelled)
      << release.status();
  EXPECT_NE(release.status().message().find("construction"),
            std::string::npos)
      << release.status();
  // Cancelled after the reservation: the full reservation is charged.
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  ASSERT_EQ(dataset->accountant()->ledger().size(), 1u);
  auto ok = Engine::Run(*dataset, spec);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineTest, CancelledColdBuildCachesNothing) {
  auto dataset = SmallDataset();
  CancelToken token;
  token.Cancel();
  // A cancelled cold margin build must not poison the cache...
  EXPECT_FALSE(dataset->MarginSupport(10, 1.1, &token).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 1u);
  // ...the next caller retries and succeeds.
  ASSERT_TRUE(dataset->MarginSupport(10, 1.1).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 2u);
}

TEST(DatasetTest, BorrowSharesCallerStorage) {
  TransactionDatabase db = MakeRandomDb({.seed = 31});
  auto handle = Dataset::Borrow(db);
  EXPECT_EQ(&handle->db(), &db);
  EXPECT_TRUE(Engine::Run(*handle, QuerySpec().WithTopK(5)).ok());
}

TEST(DatasetTest, TruthSharesTheHandleIndex) {
  auto dataset = SmallDataset();
  auto truth = dataset->Truth(10);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ((*truth)->index.get(), dataset->Index().get());
  // The one mining pass also warmed both margin keys.
  auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.truth_mines, 1u);
  EXPECT_EQ(counters.index_builds, 1u);
  ASSERT_TRUE(dataset->MarginSupport(10, 1.1).ok());
  ASSERT_TRUE(dataset->MarginSupport(10, 1.2).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 0u);
}

}  // namespace
}  // namespace privbasis
