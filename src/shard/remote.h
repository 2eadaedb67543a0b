// RemoteShardExecutor: scatter-gather CountExecutor over privbasis_shardd
// worker processes.
//
// The coordinator keeps one persistent connection per worker
// (ShardWorkerClient, reconnect-on-demand, calls serialized per
// connection) and fans each counting op across all workers on the
// global pool, merging the exact integer partials in worker order.
//
// Failure semantics are fail-closed by construction: any worker that
// cannot answer — dead process, torn connection, expired deadline —
// fails the whole op with kUnavailable (or the worker's own status,
// e.g. kCancelled), never a partial count. The engine then aborts the
// query after its BudgetLease was acquired, which charges the FULL ε
// reservation — a killed worker can lose a query, never budget.
#ifndef PRIVBASIS_SHARD_REMOTE_H_
#define PRIVBASIS_SHARD_REMOTE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/cancel.h"
#include "common/net.h"
#include "common/status.h"
#include "core/count_exec.h"
#include "shard/wire.h"

namespace privbasis {

/// "host:port" → parts. Bare "port" defaults the host to 127.0.0.1.
struct WorkerAddr {
  std::string host;
  uint16_t port = 0;
};
Result<WorkerAddr> ParseWorkerAddr(const std::string& spec);

/// One coordinator-side connection to a shard worker. Thread-safe: calls
/// are serialized on the connection (the executor's fan-out is across
/// workers, not within one). Connects lazily and reconnects after any
/// transport error.
class ShardWorkerClient {
 public:
  explicit ShardWorkerClient(WorkerAddr addr) : addr_(std::move(addr)) {}

  /// Liveness probe (used at server start and by harnesses).
  Status Ping(int64_t timeout_ms);

  /// Ships one shard slice; replaces any slice already loaded under
  /// `dataset_id`.
  Status LoadShard(const std::string& dataset_id,
                   const TransactionDatabase& shard);
  /// Best-effort unload (mirrors dataset eviction).
  Status DropShard(const std::string& dataset_id);

  // Counting ops; `cancel`'s remaining wall time (when it has a
  // deadline) propagates as the request's deadline_ms.
  Result<std::vector<uint64_t>> ItemSupports(const std::string& dataset_id,
                                             const CancelToken* cancel);
  Result<std::vector<uint64_t>> PairSupports(const std::string& dataset_id,
                                             const std::vector<Item>& items,
                                             const CancelToken* cancel);
  Result<std::vector<std::vector<uint64_t>>> BasisBins(
      const std::string& dataset_id, const BasisSet& basis_set,
      const CancelToken* cancel);
  Result<std::vector<uint64_t>> SupportOfMany(const std::string& dataset_id,
                                              std::span<const Itemset> queries,
                                              const CancelToken* cancel);

 private:
  /// One request/response exchange. Transport failures close the
  /// connection and surface as kUnavailable; kError frames decode to
  /// the worker's own status.
  Result<shardwire::Frame> Call(shardwire::FrameType type,
                                std::string payload, net::Deadline deadline);
  /// Shared header of counting requests; fails kCancelled when the
  /// token's deadline has already passed.
  Result<uint32_t> DeadlineMsFor(const CancelToken* cancel) const;

  WorkerAddr addr_;
  Mutex mu_;
  net::Fd conn_ PB_GUARDED_BY(mu_);
};

/// CountExecutor over one worker per shard, bound to one dataset id.
class RemoteShardExecutor : public CountExecutor {
 public:
  RemoteShardExecutor(std::string dataset_id,
                      std::vector<std::shared_ptr<ShardWorkerClient>> workers)
      : dataset_id_(std::move(dataset_id)), workers_(std::move(workers)) {}

  size_t NumShards() const override { return workers_.size(); }

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
  std::string dataset_id_;
  std::vector<std::shared_ptr<ShardWorkerClient>> workers_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_SHARD_REMOTE_H_
