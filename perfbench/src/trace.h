// Tracing for the per-layer run, recorded from outside the library:
// spans around calls into each layer's public functions, kept in memory
// per thread and written out when the run ends.
//
//   * StageReplay replays one PrivBasis query stage by stage through the
//     public functions Engine::Run is built from (mirroring
//     detail::RunPrivBasisImpl), with a span per stage.
//   * TimingCountExecutor decorates the dataset's CountExecutor, so the
//     counting scans become child spans of the stage that issued them.
//
// A stage's self time is its span minus the spans of its children.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/count_exec.h"
#include "engine/dataset.h"
#include "engine/query.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same log; -1 = root
  uint64_t query = 0;
};

/// The spans of one thread. Install with SpanLog::Scope; spans opened on
/// a thread without a log are not recorded.
class SpanLog {
 public:
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Makes `log` the calling thread's log and `query` the id new spans
  /// carry, until the scope ends.
  class Scope {
   public:
    Scope(SpanLog* log, uint64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* previous_;
  };

 private:
  friend class ScopedSpan;
  std::vector<Span> spans_;
  int64_t open_ = -1;
  uint64_t query_ = 0;
};

/// Records one span on the calling thread's log, if any.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t index_ = -1;
};

/// CountExecutor decorator: forwards every op to `inner` inside a span.
class TimingCountExecutor : public privbasis::CountExecutor {
 public:
  explicit TimingCountExecutor(
      std::shared_ptr<const privbasis::CountExecutor> inner)
      : inner_(std::move(inner)) {}

  size_t NumShards() const override { return inner_->NumShards(); }
  privbasis::Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const privbasis::BasisSet& basis_set,
      const privbasis::CancelToken* cancel) const override;
  privbasis::Result<std::vector<uint64_t>> PairSupports(
      const std::vector<privbasis::Item>& items,
      const privbasis::CancelToken* cancel) const override;
  privbasis::Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const privbasis::Itemset> queries,
      const privbasis::CancelToken* cancel) const override;
  privbasis::Result<std::vector<uint64_t>> ItemSupports(
      const privbasis::CancelToken* cancel) const override;

 private:
  std::shared_ptr<const privbasis::CountExecutor> inner_;
};

/// Attaches a TimingCountExecutor over the dataset's own executor.
void AttachTimingExecutor(privbasis::Dataset& dataset);

/// Replays Engine::Run for a full-data PrivBasis spec stage by stage,
/// with one span per stage. Does not touch the dataset's ledger, so the
/// release's dataset-cumulative budget fields stay zero.
privbasis::Result<privbasis::Release> StageReplay(
    const privbasis::Dataset& dataset, const privbasis::QuerySpec& spec);

/// Per-query self time (ms) of each span name, plus the root's duration
/// under "total". Keyed by query id.
std::map<uint64_t, std::map<std::string, double>> SelfTimesByQuery(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
