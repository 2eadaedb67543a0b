// Algorithm 1 (BasisFreq): privately releasing frequent itemsets from a
// basis set.
//
// Each basis Bi partitions transactions into 2^|Bi| disjoint bins (one per
// subset of Bi: the transactions whose intersection with Bi is exactly
// that subset). Releasing all bin counts of all w bases has sensitivity w,
// so Lap(w/ε) noise per bin gives ε-DP. Itemset counts are recovered as
// superset bin-sums; itemsets covered by several bases fuse their
// estimates with inverse-variance weights.
#ifndef PRIVBASIS_CORE_BASIS_FREQ_H_
#define PRIVBASIS_CORE_BASIS_FREQ_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "core/basis.h"
#include "data/transaction_db.h"
#include "dp/budget.h"
#include "fim/miner.h"

namespace privbasis {

class CountExecutor;  // core/count_exec.h

/// Tuning and test hooks of BasisFreq.
struct BasisFreqOptions {
  /// Test hook: false runs the identical pipeline with zero noise, turning
  /// BasisFreq into an exact candidate-set counter.
  bool inject_noise = true;
  /// Superset-sum implementation: the O(ℓ·2^ℓ) zeta transform (default) or
  /// the naive O(3^ℓ) per-subset enumeration (the test oracle; also the
  /// complexity the paper's analysis quotes).
  bool use_fast_superset_sum = true;
  /// Hard cap on basis length — 2^len bins are materialized per basis.
  size_t max_basis_length = 20;
  /// Cooperative cancellation, handed to the executor's bin count, which
  /// unwinds with kCancelled within one transaction chunk of the token
  /// firing. nullptr = not cancellable. Note the epsilon consumed from
  /// `accountant` stays consumed — it was reserved before the scan.
  const CancelToken* cancel = nullptr;
  /// Where the exact bin counts come from (`exec->BasisBinCounts`, merged
  /// across shards when the executor is sharded). Required: BasisFreq
  /// fails with kInvalidArgument before consuming any ε when it is null.
  /// The executor owns the scan parallelism; the release is
  /// bit-identical at every shard and thread count, because the count
  /// consumes no randomness and the noise is drawn after the merge.
  const CountExecutor* exec = nullptr;
};

/// Output of one BasisFreq invocation.
struct BasisFreqResult {
  /// The k itemsets of C(B) with the highest noisy counts, best first
  /// (deterministic tie-break: count desc, length asc, items lex).
  std::vector<NoisyItemset> topk;
  /// Number of distinct candidate itemsets in C(B).
  size_t num_candidates = 0;
};

/// The exact-counting half of Algorithm 1, run by the executors on
/// their database or slice: out[i][mask] = number of transactions whose
/// intersection with basis i is exactly the subset `mask` encodes
/// (out[i] has 2^|Bi| entries). Consumes no randomness and merges
/// across horizontal partitions by plain integer addition. `num_threads`
/// 0 = the PRIVBASIS_THREADS env knob; a fired `cancel` token unwinds
/// with kCancelled within one transaction chunk.
Result<std::vector<std::vector<uint64_t>>> CountBasisBins(
    const TransactionDatabase& db, const BasisSet& basis_set,
    size_t num_threads = 0, const CancelToken* cancel = nullptr);

/// Runs Algorithm 1 with privacy budget `epsilon`, counting through
/// `options.exec`. If `accountant` is non-null, `epsilon` is charged to
/// it (fails when the budget is exhausted). `k` = 0 returns every
/// candidate instead of the top k. `db` is not read — the executor
/// holds the data — and stays in the signature for the stage replay in
/// perfbench/src/trace.cc.
Result<BasisFreqResult> BasisFreq(const TransactionDatabase& db,
                                  const BasisSet& basis_set, size_t k,
                                  double epsilon, Rng& rng,
                                  PrivacyAccountant* accountant = nullptr,
                                  const BasisFreqOptions& options = {});

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_BASIS_FREQ_H_
