#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "core/association_rules.h"
#include "core/basis_freq.h"
#include "core/construct_basis.h"
#include "core/privbasis.h"
#include "core/threshold.h"
#include "dp/budget.h"
#include "graph/bron_kerbosch.h"
#include "graph/graph.h"

namespace perfbench {

using namespace privbasis;

namespace {

thread_local SpanLog* t_log = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, uint64_t query) : previous_(t_log) {
  t_log = log;
  if (log != nullptr) log->query_ = query;
}

SpanLog::Scope::~Scope() { t_log = previous_; }

ScopedSpan::ScopedSpan(const char* name) : log_(t_log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int64_t>(log_->spans_.size());
  log_->spans_.push_back(
      Span{name, NowNs(), 0, log_->open_, log_->query_});
  log_->open_ = index_;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  log_->open_ = span.parent;
}

Result<std::vector<std::vector<uint64_t>>> TimingCountExecutor::BasisBinCounts(
    const BasisSet& basis_set, const CancelToken* cancel) const {
  ScopedSpan span("core.bin_count");
  return inner_->BasisBinCounts(basis_set, cancel);
}

Result<std::vector<uint64_t>> TimingCountExecutor::PairSupports(
    const std::vector<Item>& items, const CancelToken* cancel) const {
  ScopedSpan span("core.pair_count");
  return inner_->PairSupports(items, cancel);
}

Result<std::vector<uint64_t>> TimingCountExecutor::SupportOfMany(
    std::span<const Itemset> queries, const CancelToken* cancel) const {
  ScopedSpan span("core.support_of_many");
  return inner_->SupportOfMany(queries, cancel);
}

Result<std::vector<uint64_t>> TimingCountExecutor::ItemSupports(
    const CancelToken* cancel) const {
  ScopedSpan span("core.item_supports");
  return inner_->ItemSupports(cancel);
}

void AttachTimingExecutor(Dataset& dataset) {
  dataset.AttachCountExecutor(
      std::make_shared<TimingCountExecutor>(dataset.EnsureCountExecutor()));
}

Result<Release> StageReplay(const Dataset& dataset, const QuerySpec& spec) {
  PRIVBASIS_RETURN_NOT_OK(spec.Validate());
  if (spec.method != QueryMethod::kPrivBasis || spec.sampling_rate < 1.0) {
    return Status::InvalidArgument(
        "stage replay covers full-data PrivBasis queries only");
  }
  const TransactionDatabase& db = dataset.db();
  if (db.NumTransactions() == 0 || db.UniverseSize() == 0) {
    return Status::InvalidArgument("empty database");
  }
  ScopedSpan root("engine.query");
  const PrivBasisOptions& options = spec.pb;
  const size_t k = spec.k;
  const double epsilon = spec.epsilon;
  Rng rng(spec.seed);

  // Engine::Run's preparation: the memoized margin and the executor.
  uint64_t fk1_support = options.fk1_support_hint;
  if (fk1_support == 0) {
    ScopedSpan span("engine.margin");
    PRIVBASIS_ASSIGN_OR_RETURN(fk1_support,
                               dataset.MarginSupport(k, options.eta));
  }
  const std::shared_ptr<const CountExecutor> exec = dataset.count_executor();
  PRIVBASIS_RETURN_NOT_OK(ValidatePrivBasisOptions(k, epsilon, options));
  PrivacyAccountant ledger(epsilon);

  // Step 1: λ.
  PRIVBASIS_RETURN_NOT_OK(ledger.Consume(options.alpha1 * epsilon, "GetLambda"));
  uint32_t lambda = 0;
  {
    ScopedSpan span("core.get_lambda");
    lambda = GetLambda(db, fk1_support, options.alpha1 * epsilon, rng);
  }
  const size_t lambda_cap = options.lambda_cap != 0
                                ? options.lambda_cap
                                : std::min<size_t>(3 * k, db.UniverseSize());
  lambda = static_cast<uint32_t>(
      std::min<size_t>(std::max<size_t>(1, lambda),
                       std::min<size_t>(lambda_cap, db.UniverseSize())));

  Release release;
  release.method = spec.method;
  release.epsilon_requested = epsilon;
  release.lambda = lambda;
  const double alpha3_eps = (1.0 - options.alpha1 - options.alpha2) * epsilon;

  if (lambda <= options.single_basis_lambda_cap) {
    PRIVBASIS_RETURN_NOT_OK(
        ledger.Consume(options.alpha2 * epsilon, "GetFreqItems"));
    std::vector<size_t> picks;
    {
      ScopedSpan span("core.item_em");
      PRIVBASIS_ASSIGN_OR_RETURN(
          picks, GetFreqElements(db.ItemSupports(), lambda,
                                 options.alpha2 * epsilon,
                                 options.monotonic_em, rng));
    }
    std::vector<Item> f;
    for (size_t idx : picks) f.push_back(static_cast<Item>(idx));
    release.basis_set = BasisSet({Itemset(std::move(f))});
  } else {
    const double lambda2_naive =
        options.eta * static_cast<double>(k) - static_cast<double>(lambda);
    double lambda2 = 0.0;
    if (lambda2_naive > 0.0) {
      lambda2 = options.naive_lambda2
                    ? lambda2_naive
                    : lambda2_naive /
                          std::sqrt(std::max(
                              1.0, lambda2_naive /
                                       static_cast<double>(lambda)));
    }
    size_t lambda2_count = static_cast<size_t>(std::llround(lambda2));
    const double beta1 =
        options.alpha2 * static_cast<double>(lambda) /
        (static_cast<double>(lambda) + static_cast<double>(lambda2_count));
    const double beta2 = options.alpha2 - beta1;

    // Step 2: the λ most frequent items.
    PRIVBASIS_RETURN_NOT_OK(ledger.Consume(beta1 * epsilon, "GetFreqItems"));
    std::vector<size_t> item_picks;
    {
      ScopedSpan span("core.item_em");
      PRIVBASIS_ASSIGN_OR_RETURN(
          item_picks, GetFreqElements(db.ItemSupports(), lambda,
                                      beta1 * epsilon, options.monotonic_em,
                                      rng));
    }
    std::vector<Item> f;
    for (size_t idx : item_picks) f.push_back(static_cast<Item>(idx));

    // Step 3: the λ2 most frequent pairs within F.
    std::vector<Itemset> p;
    if (lambda2_count > 0 && f.size() >= 2) {
      std::vector<uint64_t> pair_counts;
      if (exec != nullptr) {
        PRIVBASIS_ASSIGN_OR_RETURN(pair_counts, exec->PairSupports(f, nullptr));
        if (pair_counts.size() != f.size() * f.size()) {
          return Status::Internal("executor returned a wrong pair count size");
        }
      } else {
        ScopedSpan span("core.pair_count");
        pair_counts = CountPairSupports(db, f);
      }
      std::vector<std::pair<uint32_t, uint32_t>> pair_index;
      std::vector<uint64_t> qualities;
      for (uint32_t i = 0; i < f.size(); ++i) {
        for (uint32_t j = i + 1; j < f.size(); ++j) {
          pair_index.push_back({i, j});
          qualities.push_back(
              pair_counts[static_cast<size_t>(i) * f.size() + j]);
        }
      }
      lambda2_count = std::min(lambda2_count, pair_index.size());
      if (lambda2_count > 0 && beta2 > 0.0) {
        PRIVBASIS_RETURN_NOT_OK(
            ledger.Consume(beta2 * epsilon, "GetFreqPairs"));
        std::vector<size_t> pair_picks;
        {
          ScopedSpan span("core.pair_em");
          PRIVBASIS_ASSIGN_OR_RETURN(
              pair_picks, GetFreqElements(qualities, lambda2_count,
                                          beta2 * epsilon,
                                          options.monotonic_em, rng));
        }
        for (size_t idx : pair_picks) {
          p.push_back(Itemset{f[pair_index[idx].first],
                              f[pair_index[idx].second]});
        }
      }
    }
    release.lambda2 = static_cast<uint32_t>(p.size());

    // Step 4: basis construction. Clique finding on the same (F, P)
    // graph is timed again on its own, outside the construction span.
    ConstructBasisOptions cb;
    cb.max_basis_length = options.max_basis_length;
    {
      ScopedSpan span("core.construct");
      PRIVBASIS_ASSIGN_OR_RETURN(release.basis_set,
                                 ConstructBasisSet(f, p, cb));
    }
    {
      ScopedSpan span("graph.cliques");
      const ItemGraph graph = ItemGraph::FromItemsAndPairs(f, p);
      (void)FindMaximalCliques(graph, 2);
    }
  }

  // Step 5: BasisFreq; its bin count is a child span of the executor.
  BasisFreqOptions bf_options = options.basis_freq;
  if (bf_options.exec == nullptr) bf_options.exec = exec.get();
  {
    ScopedSpan span("core.basis_freq");
    PRIVBASIS_ASSIGN_OR_RETURN(
        BasisFreqResult bf, BasisFreq(db, release.basis_set, k, alpha3_eps,
                                      rng, &ledger, bf_options));
    release.itemsets = std::move(bf.topk);
  }
  if (spec.theta > 0.0) {
    detail::FilterByNoisyThreshold(spec.theta, db.NumTransactions(),
                                   &release.itemsets);
  }
  release.epsilon_spent = ledger.spent_epsilon();
  if (spec.derive_rules) {
    ScopedSpan span("core.rules");
    PRIVBASIS_ASSIGN_OR_RETURN(
        release.rules, ExtractRules(release.itemsets, db.NumTransactions(),
                                    spec.rule_options));
  }
  return release;
}

std::map<uint64_t, std::map<std::string, double>> SelfTimesByQuery(
    const std::vector<const SpanLog*>& logs) {
  std::map<uint64_t, std::map<std::string, double>> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      auto& stages = out[s.query];
      stages[s.name] += ms - child_ms[i];
      if (s.parent < 0) stages["total"] += ms;
    }
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  int64_t offset = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"query\":" << s.query
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << (s.parent < 0 ? -1 : s.parent + offset)
          << "}\n";
    }
    offset += static_cast<int64_t>(log->spans().size());
  }
}

}  // namespace perfbench
