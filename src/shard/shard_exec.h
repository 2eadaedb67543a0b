// LocalShardExecutor: in-process scatter-gather CountExecutor over a
// ShardedDatabase.
//
// Each op fans one task per shard onto the global pool (RunAll) and
// merges the per-shard integer partials in shard index order. Shard
// scans may themselves call ParallelFor; the pool runs nested regions
// inline on the worker, so fan-out stays bounded. Merging integer
// counts is associative and the shard boundaries depend only on
// (N, num_shards), so results are bit-identical to the unsharded scan
// at every shard and thread count.
#ifndef PRIVBASIS_SHARD_SHARD_EXEC_H_
#define PRIVBASIS_SHARD_SHARD_EXEC_H_

#include <memory>

#include "core/count_exec.h"
#include "shard/sharded_db.h"

namespace privbasis {

class LocalShardExecutor : public CountExecutor {
 public:
  /// `num_threads` bounds the per-shard inner scans (0 = the
  /// PRIVBASIS_THREADS env knob); the shard fan-out itself uses the same
  /// bound.
  explicit LocalShardExecutor(std::shared_ptr<const ShardedDatabase> shards,
                              size_t num_threads = 0)
      : shards_(std::move(shards)), num_threads_(num_threads) {}

  size_t NumShards() const override { return shards_->NumShards(); }

  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset> queries,
      const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken* cancel) const override;

 private:
  std::shared_ptr<const ShardedDatabase> shards_;
  size_t num_threads_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_SHARD_SHARD_EXEC_H_
