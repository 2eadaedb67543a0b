#include <cmath>

#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in output order.
constexpr LayerMetric kLayerMetrics[] = {
    {"data.generate_ms", "ms"},
    {"data.index_build_ms", "ms"},
    {"engine.margin_ms", "ms"},
    {"engine.margin_mines", "count"},
    {"core.get_lambda_ms", "ms"},
    {"core.item_em_ms", "ms"},
    {"core.pair_count_ms", "ms"},
    {"core.pair_em_ms", "ms"},
    {"core.construct_ms", "ms"},
    {"core.bin_count_ms", "ms"},
    {"core.basis_freq_self_ms", "ms"},
    {"core.rules_ms", "ms"},
    {"core.lambda", "count"},
    {"core.lambda2", "count"},
    {"core.bases", "count"},
    {"core.pairs", "count"},
    {"core.bins", "count"},
    {"graph.cliques_ms", "ms"},
    {"batch.batched_frac", "fraction"},
    {"batch.mean_batch", "count"},
    {"batch.scans_saved_per_query", "count"},
    {"admission.shed_frac", "fraction"},
    {"admission.cancelled_frac", "fraction"},
    {"admission.predicted_over_actual", "ratio"},
    {"server.overhead_ms", "ms"},
    {"server.parse_us", "us"},
    {"server.serialize_us", "us"},
    {"store.wal_bytes_per_query", "B"},
    {"store.wal_append_us", "us"},
    {"gen.lag_p90_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
};

// Stage span name -> metric name.
constexpr std::pair<const char*, const char*> kStages[] = {
    {"core.get_lambda", "core.get_lambda_ms"},
    {"core.item_em", "core.item_em_ms"},
    {"core.pair_count", "core.pair_count_ms"},
    {"core.pair_em", "core.pair_em_ms"},
    {"core.construct", "core.construct_ms"},
    {"core.bin_count", "core.bin_count_ms"},
    {"core.basis_freq", "core.basis_freq_self_ms"},
    {"core.rules", "core.rules_ms"},
    {"graph.cliques", "graph.cliques_ms"},
};

}  // namespace

void PrintLayerResult(bool correct, uint64_t attempted, uint64_t failed,
                      const std::map<std::string, double>& values) {
  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    metrics.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  PrintResult(correct, attempted, failed, metrics);
}

void AddStageMedians(
    const std::map<uint64_t, std::map<std::string, double>>& by_query,
    const std::map<uint64_t, double>& untraced_ms,
    std::map<std::string, double>* values) {
  for (const auto& [span, metric] : kStages) {
    std::vector<double> ms;
    for (const auto& [query, stages] : by_query) {
      auto it = stages.find(span);
      if (it != stages.end()) ms.push_back(it->second);
    }
    (*values)[metric] = Median(std::move(ms));
  }
  // The traced query's own time is the replay minus its extra clique pass.
  std::vector<double> overhead;
  for (const auto& [query, stages] : by_query) {
    auto total = stages.find("total");
    auto untraced = untraced_ms.find(query);
    if (total == stages.end() || untraced == untraced_ms.end() ||
        untraced->second <= 0.0) {
      continue;
    }
    auto cliques = stages.find("graph.cliques");
    const double traced =
        total->second - (cliques == stages.end() ? 0.0 : cliques->second);
    overhead.push_back((traced - untraced->second) / untraced->second);
  }
  (*values)["trace.overhead_frac"] = Median(std::move(overhead));
}

void AddShapeMedians(const std::vector<privbasis::Release>& releases,
                     std::map<std::string, double>* values) {
  std::vector<double> lambda, lambda2, bases, pairs, bins;
  for (const privbasis::Release& r : releases) {
    const double l = r.lambda;
    lambda.push_back(l);
    lambda2.push_back(r.lambda2);
    bases.push_back(static_cast<double>(r.basis_set.Width()));
    // Pair counting runs only off the single-basis fast path (λ > 12,
    // the default single_basis_lambda_cap).
    pairs.push_back(r.lambda > 12 ? l * (l - 1.0) / 2.0 : 0.0);
    double b = 0.0;
    for (const auto& basis : r.basis_set.bases()) {
      b += std::ldexp(1.0, static_cast<int>(basis.size()));
    }
    bins.push_back(b);
  }
  (*values)["core.lambda"] = Median(lambda);
  (*values)["core.lambda2"] = Median(lambda2);
  (*values)["core.bases"] = Median(bases);
  (*values)["core.pairs"] = Median(pairs);
  (*values)["core.bins"] = Median(bins);
}

}  // namespace perfbench
