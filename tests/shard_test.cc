// Sharded scatter-gather execution (src/shard): the merge-exactness
// invariants that make the shard count an execution detail.
//
//   * Partitioning covers every transaction exactly once, at any shard
//     count (including counts above N — empty tails).
//   * Every CountExecutor op — item supports, pair supports, basis bin
//     counts, batch itemset supports — merges per-shard partials to the
//     bit-identical integers a single-shard scan produces, at 1/2/4/8
//     shards, with candidates from all three exact miners.
//   * The full mechanism through the executor seam: BasisFreq and
//     Engine::Run produce bit-identical releases at every shard count
//     and the same seed (the scan consumes no randomness, so the noise
//     stream cannot shift).
//   * Cancellation fails closed: a fired token surfaces kCancelled from
//     the executor, never a partial count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/basis_freq.h"
#include "core/count_exec.h"
#include "core/privbasis.h"
#include "data/vertical_index.h"
#include "engine/dataset.h"
#include "engine/engine.h"
#include "fim/apriori.h"
#include "fim/eclat.h"
#include "fim/fpgrowth.h"
#include "shard/shard_exec.h"
#include "shard/sharded_db.h"
#include "bench_util.h"
#include "test_util.h"

namespace privbasis {
namespace {

using privbasis::testing::MakeDb;
using privbasis::testing::MakeRandomDb;
using privbasis::testing::RandomDbSpec;
using privbasis::bench::ScanExecutor;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

LocalShardExecutor MakeExecutor(const TransactionDatabase& db,
                                size_t num_shards) {
  auto partitioned = ShardedDatabase::Create(db, num_shards);
  EXPECT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  return LocalShardExecutor(
      std::make_shared<const ShardedDatabase>(std::move(*partitioned)),
      /*num_threads=*/2);
}

TEST(ShardedDatabaseTest, PartitionCoversEveryTransactionOnce) {
  const TransactionDatabase db = MakeRandomDb({.seed = 7});
  for (const size_t num_shards : {1ul, 2ul, 5ul, 8ul}) {
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                   ShardedDatabase::Create(db, num_shards));
    ASSERT_EQ(sharded.NumShards(), num_shards);
    EXPECT_EQ(sharded.NumTransactions(), db.NumTransactions());
    EXPECT_EQ(sharded.UniverseSize(), db.UniverseSize());
    // Concatenating the slices in shard order reproduces the database.
    size_t global = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const TransactionDatabase& slice = sharded.shard(s);
      EXPECT_EQ(slice.UniverseSize(), db.UniverseSize());
      for (size_t t = 0; t < slice.NumTransactions(); ++t, ++global) {
        const auto expect = db.Transaction(global);
        const auto got = slice.Transaction(t);
        ASSERT_EQ(std::vector<Item>(expect.begin(), expect.end()),
                  std::vector<Item>(got.begin(), got.end()));
      }
    }
    EXPECT_EQ(global, db.NumTransactions());
  }
}

TEST(ShardedDatabaseTest, MoreShardsThanTransactionsLeavesEmptyTails) {
  const TransactionDatabase db = MakeDb({{0, 1}, {1, 2}, {0, 2}});
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                 ShardedDatabase::Create(db, 8));
  size_t total = 0;
  for (size_t s = 0; s < sharded.NumShards(); ++s) {
    total += sharded.shard(s).NumTransactions();
  }
  EXPECT_EQ(total, 3u);
}

TEST(ShardedDatabaseTest, ZeroShardsIsRejected) {
  const TransactionDatabase db = MakeDb({{0, 1}});
  EXPECT_FALSE(ShardedDatabase::Create(db, 0).ok());
}

TEST(ShardExecTest, ItemSupportsMergeExactly) {
  const TransactionDatabase db = MakeRandomDb({.seed = 11});
  const std::vector<uint64_t>& expected = db.ItemSupports();
  for (const size_t num_shards : kShardCounts) {
    const LocalShardExecutor exec = MakeExecutor(db, num_shards);
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> merged,
                                   exec.ItemSupports(nullptr));
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

TEST(ShardExecTest, PairSupportsMergeExactly) {
  const TransactionDatabase db = MakeRandomDb({.seed = 13});
  const std::vector<Item> items = {0, 1, 2, 3, 5, 8};
  const std::vector<uint64_t> expected =
      CountPairSupports(db, items, nullptr);
  for (const size_t num_shards : kShardCounts) {
    const LocalShardExecutor exec = MakeExecutor(db, num_shards);
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> merged,
                                   exec.PairSupports(items, nullptr));
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

TEST(ShardExecTest, BasisBinCountsMergeExactly) {
  const TransactionDatabase db = MakeRandomDb({.seed = 17});
  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1, 2}));
  basis_set.Add(Itemset({1, 3, 5, 7}));
  basis_set.Add(Itemset({4}));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      std::vector<std::vector<uint64_t>> expected,
      CountBasisBins(db, basis_set, /*num_threads=*/1));
  for (const size_t num_shards : kShardCounts) {
    const LocalShardExecutor exec = MakeExecutor(db, num_shards);
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<std::vector<uint64_t>> merged,
                                   exec.BasisBinCounts(basis_set, nullptr));
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

// Batch supports merge exactly for candidates surfaced by EVERY exact
// miner: the queries a real mechanism would issue, not hand-picked ones.
// The miners' own exact supports double as the oracle.
TEST(ShardExecTest, SupportOfManyMergesExactlyForAllMiners) {
  const TransactionDatabase db = MakeRandomDb(
      {.seed = 19, .num_transactions = 80, .universe = 10});
  MiningOptions mining;
  mining.min_support = 4;
  mining.max_length = 4;

  PRIVBASIS_ASSERT_OK_AND_ASSIGN(MiningResult apriori,
                                 MineApriori(db, mining));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(MiningResult eclat, MineEclat(db, mining));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(MiningResult fpgrowth,
                                 MineFpGrowth(db, mining));
  ASSERT_FALSE(apriori.itemsets.empty());

  for (const MiningResult* mined : {&apriori, &eclat, &fpgrowth}) {
    std::vector<Itemset> queries;
    std::vector<uint64_t> expected;
    for (const FrequentItemset& f : mined->itemsets) {
      queries.push_back(f.items);
      expected.push_back(f.support);
    }
    for (const size_t num_shards : kShardCounts) {
      const LocalShardExecutor exec = MakeExecutor(db, num_shards);
      PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> merged,
                                     exec.SupportOfMany(queries, nullptr));
      EXPECT_EQ(merged, expected) << num_shards << " shards";
    }
  }
}

// The whole mechanism through the seam: identical noisy releases at any
// shard count and the same seed — the exact scan consumes no randomness,
// so hoisting it across shards cannot shift the noise stream.
TEST(ShardExecTest, BasisFreqBitIdenticalThroughExecutor) {
  const TransactionDatabase db = MakeRandomDb({.seed = 23});
  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1, 2}));
  basis_set.Add(Itemset({2, 3, 4}));

  Rng direct_rng(99);
  const DirectCountExecutor scan = ScanExecutor(db);
  BasisFreqOptions direct_options;
  direct_options.exec = &scan;
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      BasisFreqResult direct,
      BasisFreq(db, basis_set, /*k=*/10, /*epsilon=*/1.0, direct_rng,
                /*accountant=*/nullptr, direct_options));

  for (const size_t num_shards : kShardCounts) {
    const LocalShardExecutor exec = MakeExecutor(db, num_shards);
    BasisFreqOptions options;
    options.exec = &exec;
    Rng rng(99);
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(
        BasisFreqResult sharded,
        BasisFreq(db, basis_set, /*k=*/10, /*epsilon=*/1.0, rng,
                  /*accountant=*/nullptr, options));
    ASSERT_EQ(sharded.topk.size(), direct.topk.size());
    for (size_t i = 0; i < direct.topk.size(); ++i) {
      EXPECT_EQ(sharded.topk[i].items, direct.topk[i].items);
      // Bit-identical doubles: == with no tolerance.
      EXPECT_EQ(sharded.topk[i].noisy_count, direct.topk[i].noisy_count)
          << num_shards << " shards, itemset " << i;
    }
  }
}

// End to end: Engine::Run over Datasets that differ only in num_shards.
// Exercises the full PrivBasis pipeline (fk1 hint, pair counting through
// the executor, BasisFreq) — the acceptance bit of this subsystem.
TEST(ShardExecTest, EngineRunBitIdenticalAcrossShardCounts) {
  const TransactionDatabase db = MakeRandomDb(
      {.seed = 29, .num_transactions = 120, .universe = 14});

  QuerySpec spec;
  spec.k = 12;
  spec.epsilon = 1.0;
  spec.seed = 4242;

  auto baseline_ds =
      Dataset::Create(TransactionDatabase(db), {.num_shards = 1});
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release baseline,
                                 Engine::Run(*baseline_ds, spec));
  ASSERT_FALSE(baseline.itemsets.empty());

  for (const size_t num_shards : {2ul, 4ul, 8ul}) {
    auto sharded_ds =
        Dataset::Create(TransactionDatabase(db), {.num_shards = num_shards});
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release sharded,
                                   Engine::Run(*sharded_ds, spec));
    // The lazy executor must actually have been built and used.
    EXPECT_EQ(sharded_ds->cache_counters().shard_builds, 1u);
    EXPECT_EQ(sharded_ds->shard_fanout(), num_shards);

    ASSERT_EQ(sharded.itemsets.size(), baseline.itemsets.size());
    for (size_t i = 0; i < baseline.itemsets.size(); ++i) {
      EXPECT_EQ(sharded.itemsets[i].items, baseline.itemsets[i].items);
      EXPECT_EQ(sharded.itemsets[i].noisy_count,
                baseline.itemsets[i].noisy_count)
          << num_shards << " shards, itemset " << i;
    }
    EXPECT_EQ(sharded.lambda, baseline.lambda);
    EXPECT_EQ(sharded.lambda2, baseline.lambda2);
    EXPECT_EQ(sharded.epsilon_spent, baseline.epsilon_spent);
  }
}

// An unsharded dataset counts through a 1-shard executor without
// partitioning anything; shard_fanout stays 1.
TEST(ShardExecTest, UnshardedDatasetSkipsExecutor) {
  auto dataset = Dataset::Create(MakeDb({{0, 1}, {1, 2}}), {.num_shards = 1});
  const auto exec = dataset->count_executor();
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->NumShards(), 1u);
  EXPECT_EQ(dataset->shard_fanout(), 1u);
  EXPECT_EQ(dataset->cache_counters().shard_builds, 0u);
}

// A fired token surfaces kCancelled from every op — never a partial or
// garbage count (the fail-closed half of the executor contract).
TEST(ShardExecTest, FiredTokenFailsClosed) {
  const TransactionDatabase db = MakeRandomDb({.seed = 31});
  const LocalShardExecutor exec = MakeExecutor(db, 4);
  CancelToken token;
  token.Cancel();

  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1}));
  EXPECT_EQ(exec.BasisBinCounts(basis_set, &token).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(exec.PairSupports({0, 1, 2}, &token).status().code(),
            StatusCode::kCancelled);
  const std::vector<Itemset> queries = {Itemset({0}), Itemset({1, 2})};
  EXPECT_EQ(exec.SupportOfMany(queries, &token).status().code(),
            StatusCode::kCancelled);
}

// Satellite regression (PR 6 gap): the batch path itself honors the
// token, independent of the executor wrapper.
TEST(ShardExecTest, VerticalIndexBatchHonorsCancelToken) {
  const TransactionDatabase db = MakeRandomDb({.seed = 37});
  const VerticalIndex index(db);
  const std::vector<Itemset> queries(200, Itemset({0, 1}));
  CancelToken token;
  token.Cancel();
  // Fired before the call: the partial-fill contract says the caller
  // checks the token and discards; the vector overload still returns a
  // (discardable) buffer, but no crash and no hang.
  (void)index.SupportOfMany(queries, /*num_threads=*/2, &token);
  EXPECT_TRUE(token.Cancelled());
}

}  // namespace
}  // namespace privbasis
