#include "fim/fpgrowth.h"

#include <algorithm>
#include <atomic>

#include "common/annotations.h"
#include "common/thread_pool.h"

namespace privbasis {

void SortCanonical(std::vector<FrequentItemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.support != b.support) return a.support > b.support;
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
}

namespace {

struct GrowthContext {
  const MiningOptions* options;
  std::vector<FrequentItemset>* out;
  /// Per-task pattern cap: max_patterns + 1 (0 = unbounded). The DFS
  /// emission prefix of that length is all the truncation contract needs.
  uint64_t cap;
  /// Set once the contiguous run of completed root tasks has emitted
  /// `cap` patterns: everything a still-running later task produces lies
  /// beyond the truncation prefix, so it may stop immediately. Purely an
  /// early-exit signal — the kept prefix is identical with or without it.
  const std::atomic<bool>* prefix_done;
  /// Shared cancel flag (flips once options->cancel fires); reuses the
  /// aborted early-exit plumbing, distinguished at the end of the mine.
  std::atomic<bool>* cancelled;
  bool aborted = false;
};

/// Emits suffix ∪ {each frequent rank}, recursing into conditional trees.
/// `suffix` holds item ids (unsorted; canonicalized on emission).
void Grow(const FpTree& tree, std::vector<Item>* suffix, GrowthContext* ctx) {
  if (ctx->aborted) return;
  if (ctx->cancelled->load(std::memory_order_relaxed) ||
      IsCancelled(ctx->options->cancel)) {
    ctx->cancelled->store(true, std::memory_order_relaxed);
    ctx->aborted = true;
    return;
  }
  if (ctx->prefix_done != nullptr &&
      ctx->prefix_done->load(std::memory_order_relaxed)) {
    ctx->aborted = true;
    return;
  }
  for (uint32_t rank = 0; rank < tree.NumRanks(); ++rank) {
    uint64_t support = tree.SupportAt(rank);
    suffix->push_back(tree.ItemAt(rank));
    ctx->out->push_back(
        FrequentItemset{Itemset(std::vector<Item>(*suffix)), support});
    if (ctx->cap != 0 && ctx->out->size() >= ctx->cap) {
      ctx->aborted = true;
      suffix->pop_back();
      return;
    }
    const bool at_cap = ctx->options->max_length != 0 &&
                        suffix->size() >= ctx->options->max_length;
    if (!at_cap) {
      FpTree cond = tree.ConditionalTree(rank, ctx->options->min_support);
      if (!cond.Empty()) Grow(cond, suffix, ctx);
    }
    suffix->pop_back();
    if (ctx->aborted) return;
  }
}

}  // namespace

Result<MiningResult> MineFpGrowth(const TransactionDatabase& db,
                                  const MiningOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  const size_t threads = EffectiveThreads(options.num_threads);
  FpTree tree(db, options.min_support, threads);
  const size_t num_ranks = tree.NumRanks();
  const uint64_t cap =
      options.max_patterns == 0 ? 0 : options.max_patterns + 1;

  // First projection level fans out over the pool: each root rank mines
  // its conditional tree into a private buffer, and the buffers
  // concatenate in rank order — exactly the sequential DFS emission
  // stream, so the result (and the truncation prefix) is identical at
  // every thread count. Under a max_patterns cap, a shared flag flips as
  // soon as the contiguous run of completed ranks 0..j covers the whole
  // prefix; every later rank then bails out, keeping an aborted mine at
  // O(cap) total work instead of O(num_ranks · cap). The flag never
  // changes the kept prefix: a task observing it is strictly after the
  // covered run, so its output would be discarded anyway.
  std::vector<std::vector<FrequentItemset>> per_rank(num_ranks);
  std::atomic<bool> cancelled{false};
  std::atomic<bool> prefix_done{false};
  Mutex done_mu;
  std::vector<char> completed(num_ranks, 0);
  size_t next_done = 0;
  uint64_t done_total = 0;
  ThreadPool::Global().ParallelFor(
      0, num_ranks, 1, threads, [&](size_t b, size_t e, size_t) {
        for (size_t r = b; r < e; ++r) {
          const uint32_t rank = static_cast<uint32_t>(r);
          auto& out = per_rank[r];
          if (cancelled.load(std::memory_order_relaxed) ||
              IsCancelled(options.cancel)) {
            cancelled.store(true, std::memory_order_relaxed);
            return;
          }
          if (cap == 0 || !prefix_done.load(std::memory_order_relaxed)) {
            out.push_back(FrequentItemset{Itemset{tree.ItemAt(rank)},
                                          tree.SupportAt(rank)});
            const bool want_children =
                (cap == 0 || out.size() < cap) && options.max_length != 1;
            if (want_children) {
              FpTree cond = tree.ConditionalTree(rank, options.min_support);
              if (!cond.Empty()) {
                std::vector<Item> suffix{tree.ItemAt(rank)};
                GrowthContext ctx{&options, &out, cap,
                                  cap != 0 ? &prefix_done : nullptr,
                                  &cancelled, false};
                Grow(cond, &suffix, &ctx);
              }
            }
          }
          if (cap != 0) {
            MutexLock lock(done_mu);
            completed[r] = 1;
            while (next_done < num_ranks && completed[next_done]) {
              done_total += per_rank[next_done].size();
              ++next_done;
            }
            if (done_total >= cap) {
              prefix_done.store(true, std::memory_order_relaxed);
            }
          }
        }
      });
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("fp-growth mine cancelled mid-scan");
  }

  MiningResult result;
  bool overflow = false;
  for (auto& out : per_rank) {
    for (auto& fi : out) {
      if (cap != 0 && result.itemsets.size() >= cap) {
        overflow = true;
        break;
      }
      result.itemsets.push_back(std::move(fi));
    }
    if (overflow) break;
  }
  SortCanonical(&result.itemsets);
  if (cap != 0 && result.itemsets.size() > options.max_patterns) {
    // Truncation contract: keep the canonically first max_patterns of the
    // patterns collected before the abort.
    result.itemsets.resize(options.max_patterns);
    result.aborted = true;
  }
  return result;
}

}  // namespace privbasis
