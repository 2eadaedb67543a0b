// VerticalIndex: hybrid per-item tid-list index over a transaction
// database.
//
// Every item keeps a sorted transaction-id list (CSR layout). Items whose
// frequency reaches a density threshold additionally get a dense 64-bit
// bitmap over [0, N): intersections touching only dense items run as
// word-wise AND + popcount, mixed queries drive the shortest sorted list
// and test dense members with O(1) bit probes, and fully sparse queries
// fall back to the original galloping multi-way intersection. This is the
// workhorse behind the TF baseline's rejection sampler and the
// ground-truth verifier, where support queries arrive for itemsets no
// miner enumerated, and behind DirectCountExecutor's bitmap pair and
// BasisFreq bin counts.
//
// Construction is parallelized across transaction shards with
// deterministic output (tid order never depends on the thread count).
#ifndef PRIVBASIS_DATA_VERTICAL_INDEX_H_
#define PRIVBASIS_DATA_VERTICAL_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "data/itemset.h"
#include "data/transaction_db.h"

namespace privbasis {

/// Items with frequency ≥ this get a dense bitmap besides their tid-list.
inline constexpr double kBitmapDensityThreshold = 1.0 / 64;

/// Immutable tid-list index over a TransactionDatabase.
class VerticalIndex {
 public:
  struct Options {
    /// Items with frequency ≥ this also get a dense bitmap. Values ≥ 1
    /// disable bitmaps; 0 densifies every occurring item.
    double density_threshold = kBitmapDensityThreshold;
    /// Construction parallelism; 0 = the PRIVBASIS_THREADS env knob.
    size_t num_threads = 0;
  };

  /// Builds the index with one scan of `db`. The index keeps no reference
  /// to `db` afterwards.
  explicit VerticalIndex(const TransactionDatabase& db)
      : VerticalIndex(db, Options{}) {}
  VerticalIndex(const TransactionDatabase& db, const Options& options);

  /// Sorted transaction ids containing `item`.
  std::span<const uint32_t> TidList(Item item) const;

  /// Absolute support of `itemset`: |∩ tid-lists|. Empty itemset returns N.
  uint64_t SupportOf(const Itemset& itemset) const;

  /// Frequency f(X) = support / N.
  double FrequencyOf(const Itemset& itemset) const {
    return static_cast<double>(SupportOf(itemset)) /
           static_cast<double>(num_transactions_);
  }

  /// Support of the pair {a, b} (common fast path).
  uint64_t SupportOfPair(Item a, Item b) const;

  /// Batch support counting: out[i] = SupportOf(queries[i]), computed in
  /// parallel (0 = PRIVBASIS_THREADS). Deterministic: output order is the
  /// query order regardless of thread count. A fired `cancel` token stops
  /// the batch within one query chunk and leaves `out` partially filled —
  /// the caller must check the token afterwards and discard the results.
  void SupportOfMany(std::span<const Itemset> queries,
                     std::span<uint64_t> out, size_t num_threads = 0,
                     const CancelToken* cancel = nullptr) const;
  std::vector<uint64_t> SupportOfMany(std::span<const Itemset> queries,
                                      size_t num_threads = 0,
                                      const CancelToken* cancel = nullptr) const;

  /// BasisFreq's bin counts through the bitmaps: out[i][mask] = the
  /// number of transactions whose intersection with bases[i] is exactly
  /// the subset `mask` encodes (bit j = bases[i][j]), so out[i] has
  /// 2^|bases[i]| entries summing to N — the counts CountBasisBins scans
  /// for. Every basis item must be dense (IsDense). Each basis splits the
  /// all-transactions set with AND / ANDNOT of its items' bitmaps, on the
  /// calling thread, in ~2^|Bi| · ⌈N/64⌉ words. Per basis it hits the
  /// "basis_freq_chunk" failpoint and then polls `cancel`; a fired token
  /// returns kCancelled, never partial bins. Counting seam: only the
  /// count executors call it.
  Result<std::vector<std::vector<uint64_t>>> BitmapBasisBins(
      std::span<const Itemset> bases, const CancelToken* cancel) const;

  /// The bitmap rule: an item whose support is at least this many
  /// transactions, out of `num_transactions`, gets a dense bitmap.
  /// `density_threshold` (≥ 0) reads as Options::density_threshold;
  /// UINT64_MAX when no item gets one.
  static uint64_t MinDenseSupport(
      size_t num_transactions,
      double density_threshold = kBitmapDensityThreshold);

  /// True iff `item` is backed by a dense bitmap (diagnostics / tests).
  bool IsDense(Item item) const {
    return item < universe_size_ && dense_rank_[item] != kNoDense;
  }
  size_t NumDenseItems() const { return num_dense_; }

  size_t NumTransactions() const { return num_transactions_; }
  uint32_t UniverseSize() const { return universe_size_; }

 private:
  static constexpr uint32_t kNoDense = 0xffffffffu;

  /// Bitmap words of the dense item with rank `rank`.
  const uint64_t* Bitmap(uint32_t rank) const {
    return bitmaps_.data() + static_cast<size_t>(rank) * bitmap_words_;
  }
  bool BitmapTest(uint32_t rank, uint32_t tid) const {
    return (Bitmap(rank)[tid >> 6] >> (tid & 63)) & 1u;
  }

  size_t num_transactions_;
  uint32_t universe_size_;
  // CSR over items: tids_[tid_offsets_[i]..tid_offsets_[i+1]) sorted.
  std::vector<uint32_t> tids_;
  std::vector<uint64_t> tid_offsets_;
  // Dense backend: per-item bitmap rank (kNoDense = list only) and the
  // bitmap arena, bitmap_words_ words per dense item.
  std::vector<uint32_t> dense_rank_;
  std::vector<uint64_t> bitmaps_;
  size_t bitmap_words_ = 0;
  size_t num_dense_ = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_DATA_VERTICAL_INDEX_H_
