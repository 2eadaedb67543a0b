#include "data/vertical_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>

#include "common/env.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace privbasis {

VerticalIndex::VerticalIndex(const TransactionDatabase& db,
                             const Options& options)
    : num_transactions_(db.NumTransactions()),
      universe_size_(db.UniverseSize()) {
  // Counting sort into CSR: supports give exact bucket sizes.
  const auto& supports = db.ItemSupports();
  tid_offsets_.assign(universe_size_ + 1, 0);
  for (uint32_t i = 0; i < universe_size_; ++i) {
    tid_offsets_[i + 1] = tid_offsets_[i] + supports[i];
  }
  tids_.resize(db.TotalItemOccurrences());

  const size_t n = num_transactions_;
  const size_t threads = EffectiveThreads(options.num_threads);
  // Per-shard cursor arrays cost shards · |I| · 8 bytes; keep the arena
  // under ~64 MiB and skip sharding entirely for small inputs.
  size_t num_shards = 1;
  if (threads > 1 && n >= 2048 && universe_size_ > 0) {
    const size_t memory_cap =
        std::max<size_t>(1, (size_t{64} << 20) / (universe_size_ * 8));
    num_shards = std::min({threads, size_t{16}, n / 1024, memory_cap});
  }
  if (num_shards <= 1) {
    std::vector<uint64_t> cursor(tid_offsets_.begin(), tid_offsets_.end() - 1);
    for (size_t t = 0; t < n; ++t) {
      for (Item it : db.Transaction(t)) {
        tids_[cursor[it]++] = static_cast<uint32_t>(t);
      }
    }
  } else {
    // Two parallel passes over contiguous transaction shards. Pass A
    // counts per-shard occurrences; a per-item exclusive prefix across
    // shards turns the counts into disjoint write cursors, so pass B's
    // fills are race-free and tid order matches the sequential scan.
    auto shard_begin = [&](size_t s) { return n * s / num_shards; };
    std::vector<std::vector<uint64_t>> cursors(
        num_shards, std::vector<uint64_t>(universe_size_, 0));
    ThreadPool::Global().ParallelFor(
        0, num_shards, 1, threads, [&](size_t, size_t, size_t s) {
          auto& counts = cursors[s];
          for (size_t t = shard_begin(s); t < shard_begin(s + 1); ++t) {
            for (Item it : db.Transaction(t)) ++counts[it];
          }
        });
    ThreadPool::Global().ParallelFor(
        0, universe_size_, 4096, threads, [&](size_t b, size_t e, size_t) {
          for (size_t item = b; item < e; ++item) {
            uint64_t running = tid_offsets_[item];
            for (size_t s = 0; s < num_shards; ++s) {
              const uint64_t count = cursors[s][item];
              cursors[s][item] = running;
              running += count;
            }
          }
        });
    ThreadPool::Global().ParallelFor(
        0, num_shards, 1, threads, [&](size_t, size_t, size_t s) {
          auto& cursor = cursors[s];
          for (size_t t = shard_begin(s); t < shard_begin(s + 1); ++t) {
            for (Item it : db.Transaction(t)) {
              tids_[cursor[it]++] = static_cast<uint32_t>(t);
            }
          }
        });
  }

  // Dense backend: bitmap every item whose support clears the density
  // threshold (support 0 items always stay sparse).
  dense_rank_.assign(universe_size_, kNoDense);
  const uint64_t min_dense_support =
      MinDenseSupport(n, options.density_threshold);
  if (min_dense_support != UINT64_MAX) {
    for (uint32_t i = 0; i < universe_size_; ++i) {
      if (supports[i] >= min_dense_support) {
        dense_rank_[i] = static_cast<uint32_t>(num_dense_++);
      }
    }
    bitmap_words_ = (n + 63) / 64;
    bitmaps_.assign(num_dense_ * bitmap_words_, 0);
    ThreadPool::Global().ParallelFor(
        0, universe_size_, 256, threads, [&](size_t b, size_t e, size_t) {
          for (size_t item = b; item < e; ++item) {
            const uint32_t rank = dense_rank_[item];
            if (rank == kNoDense) continue;
            uint64_t* bitmap =
                bitmaps_.data() + static_cast<size_t>(rank) * bitmap_words_;
            for (uint32_t tid : TidList(static_cast<Item>(item))) {
              bitmap[tid >> 6] |= uint64_t{1} << (tid & 63);
            }
          }
        });
  }
}

uint64_t VerticalIndex::MinDenseSupport(size_t num_transactions,
                                        double density_threshold) {
  if (density_threshold < 0.0) density_threshold = BitmapDensityThreshold();
  if (!(density_threshold < 1.0) || num_transactions == 0) return UINT64_MAX;
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(std::max(0.0, density_threshold) *
                       static_cast<double>(num_transactions))));
}

std::span<const uint32_t> VerticalIndex::TidList(Item item) const {
  if (item >= universe_size_) {
    // Out-of-universe items never occur: empty list (metrics may probe
    // arbitrary published itemsets).
    return {};
  }
  return std::span<const uint32_t>(tids_.data() + tid_offsets_[item],
                                   tids_.data() + tid_offsets_[item + 1]);
}

namespace {

/// Galloping (exponential) search: first index in [lo, n) with v[idx] >= x.
size_t Gallop(std::span<const uint32_t> v, size_t lo, uint32_t x) {
  size_t hi = lo + 1;
  size_t n = v.size();
  while (hi < n && v[hi] < x) {
    size_t step = (hi - lo) * 2;
    lo = hi;
    hi = std::min(n, lo + step);
  }
  return std::lower_bound(v.begin() + lo, v.begin() + std::min(hi + 1, n), x) -
         v.begin();
}

/// Per-thread query scratch: hoisted out of SupportOf so repeated ad-hoc
/// queries (the TF rejection sampler's hot loop) allocate nothing.
struct QueryScratch {
  std::vector<std::span<const uint32_t>> sparse;
  std::vector<const uint64_t*> dense;
  std::vector<size_t> pos;
  std::vector<uint64_t> combined;
};

QueryScratch& TlsScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

uint64_t VerticalIndex::SupportOf(const Itemset& itemset) const {
  const size_t size = itemset.size();
  if (size == 0) return num_transactions_;
  if (size == 1) {
    const Item it = itemset[0];
    if (it >= universe_size_) return 0;
    return tid_offsets_[it + 1] - tid_offsets_[it];
  }
  if (size == 2) return SupportOfPair(itemset[0], itemset[1]);

  QueryScratch& scratch = TlsScratch();
  scratch.sparse.clear();
  scratch.dense.clear();
  for (Item it : itemset) {
    if (it >= universe_size_) return 0;
    const uint32_t rank = dense_rank_[it];
    if (rank != kNoDense) {
      scratch.dense.push_back(Bitmap(rank));
    } else {
      scratch.sparse.push_back(TidList(it));
    }
  }

  if (scratch.sparse.empty()) {
    // All-dense: k-way fused AND + popcount across the bitmaps.
    return simd::AndPopcountMany(scratch.dense.data(), scratch.dense.size(),
                                 bitmap_words_);
  }

  // Mixed / all-sparse: drive from the shortest sorted list; dense members
  // cost one bit probe per candidate tid, remaining sparse lists gallop.
  std::sort(scratch.sparse.begin(), scratch.sparse.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  if (scratch.sparse.front().empty()) return 0;

  if (scratch.dense.size() >= 2 &&
      scratch.sparse.front().size() >= 2 * bitmap_words_) {
    // Probe-heavy query: pre-AND the dense bitmaps into one (sequential
    // vector kernel) so each candidate tid costs a single bit probe.
    scratch.combined.assign(scratch.dense[0], scratch.dense[0] + bitmap_words_);
    for (size_t j = 1; j < scratch.dense.size(); ++j) {
      simd::AndInto(scratch.combined.data(), scratch.dense[j], bitmap_words_);
    }
    scratch.dense.assign(1, scratch.combined.data());
  }

  uint64_t support = 0;
  scratch.pos.assign(scratch.sparse.size(), 0);
  for (uint32_t tid : scratch.sparse[0]) {
    bool in_all = true;
    for (const uint64_t* bitmap : scratch.dense) {
      if (!((bitmap[tid >> 6] >> (tid & 63)) & 1u)) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    for (size_t j = 1; j < scratch.sparse.size(); ++j) {
      const size_t p = Gallop(scratch.sparse[j], scratch.pos[j], tid);
      scratch.pos[j] = p;
      if (p >= scratch.sparse[j].size() || scratch.sparse[j][p] != tid) {
        in_all = false;
        break;
      }
    }
    if (in_all) ++support;
  }
  return support;
}

uint64_t VerticalIndex::SupportOfPair(Item a, Item b) const {
  if (a >= universe_size_ || b >= universe_size_) return 0;
  if (a == b) return tid_offsets_[a + 1] - tid_offsets_[a];
  const uint32_t ra = dense_rank_[a];
  const uint32_t rb = dense_rank_[b];
  if (ra != kNoDense && rb != kNoDense) {
    return simd::AndPopcount(Bitmap(ra), Bitmap(rb), bitmap_words_);
  }
  if (ra != kNoDense || rb != kNoDense) {
    const uint32_t rank = (ra != kNoDense) ? ra : rb;
    auto list = TidList((ra != kNoDense) ? b : a);
    uint64_t support = 0;
    for (uint32_t tid : list) {
      support += BitmapTest(rank, tid);
    }
    return support;
  }
  auto la = TidList(a);
  auto lb = TidList(b);
  if (la.size() > lb.size()) std::swap(la, lb);
  if (la.empty()) return 0;
  uint64_t support = 0;
  size_t p = 0;
  for (uint32_t tid : la) {
    p = Gallop(lb, p, tid);
    if (p >= lb.size()) break;
    if (lb[p] == tid) ++support;
  }
  return support;
}

void VerticalIndex::SupportOfMany(std::span<const Itemset> queries,
                                  std::span<uint64_t> out,
                                  size_t num_threads,
                                  const CancelToken* cancel) const {
  assert(out.size() >= queries.size());
  const size_t threads = EffectiveThreads(num_threads);
  const size_t grain = std::max<size_t>(1, queries.size() / (threads * 8));
  // Cancellation granularity: one poll per kCancelChunk queries (each
  // query is a full tid-list intersection, so the chunk bounds the stop
  // latency). The shared sticky flag keeps all ranges stopping together
  // with a single clock read after the token fires.
  constexpr size_t kCancelChunk = 256;
  std::atomic<bool> cancelled{false};
  auto poll_cancel = [&] {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    if (!IsCancelled(cancel)) return false;
    cancelled.store(true, std::memory_order_relaxed);
    return true;
  };
  ThreadPool::Global().ParallelFor(
      0, queries.size(), grain, threads, [&](size_t b, size_t e, size_t) {
        for (size_t i = b; i < e; ++i) {
          if ((i - b) % kCancelChunk == 0 && poll_cancel()) return;
          out[i] = SupportOf(queries[i]);
        }
      });
}

std::vector<uint64_t> VerticalIndex::SupportOfMany(
    std::span<const Itemset> queries, size_t num_threads,
    const CancelToken* cancel) const {
  std::vector<uint64_t> out(queries.size());
  SupportOfMany(queries, std::span<uint64_t>(out), num_threads, cancel);
  return out;
}

}  // namespace privbasis
