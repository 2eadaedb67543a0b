// Shared helpers of the benchmark runner: input derivation from the
// workload seed, the input digest, order statistics, release comparison
// and the result line.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/transaction_db.h"
#include "engine/query.h"

namespace perfbench {

/// The benchmark's own generator for inputs (SplitMix64), kept apart from
/// the library's Rng so that a change to the program cannot change the
/// inputs it is measured on.
class InputStream {
 public:
  explicit InputStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// FNV-1a over everything the workload feeds the program.
class Digest {
 public:
  void Add(std::string_view text);
  void Add(uint64_t value) { Add(std::to_string(value)); }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Latency percentile where a refused or failed operation is recorded as
/// +inf: it counts as taking the whole measurement window, so the value
/// stays finite and only ever gets worse for a failure.
inline double LatencyPercentile(const std::vector<double>& ms, double q,
                                double window_s) {
  const double p = Percentile(ms, q);
  return p < window_s * 1000.0 ? p : window_s * 1000.0;
}
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// True when two releases agree bit for bit in everything the mechanism
/// produced: itemsets and noisy counts, rules, λ, λ2, the basis set, and
/// the requested and spent ε. The dataset-cumulative ledger fields are
/// left out: they depend on what else ran on the dataset.
bool SameRelease(const privbasis::Release& a, const privbasis::Release& b);

/// An inline dataset of 4000 transactions over items 0..19 (the payload
/// of a write operation). The size keeps the write's median steady: a
/// 40-transaction write takes a few microseconds in process and moved by
/// 30–40% between processes; served, its ~2 ms were mostly thread
/// hand-offs and moved by ~25% between runs with the host's load. At
/// 4000 the real work dominates and both moved by under 10%.
std::vector<std::vector<privbasis::Item>> MakeInlineTransactions(
    InputStream& in);
privbasis::TransactionDatabase BuildDatabase(
    const std::vector<std::vector<privbasis::Item>>& rows);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line (the last line of standard output).
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// The per-request byte-level costs of the HTTP layer on a workload's own
/// traffic: ParseHttpRequest over request bytes, and ReleaseToJson plus
/// SerializeHttpResponse over releases. Medians in microseconds.
double MedianParseUs(const std::vector<std::string>& request_bytes);
double MedianSerializeUs(const std::vector<privbasis::Release>& releases);

/// HTTP/1.1 request bytes as a client sends them.
std::string RequestBytes(const std::string& method, const std::string& target,
                         const std::string& body);

/// Median time of one BudgetWal reserve + commit pair under `commit`
/// fsync on a scratch WAL in `dir`, and the bytes each pair appends.
struct WalCost {
  double append_us = 0.0;
  double bytes_per_query = 0.0;
};
WalCost MeasureWalAppend(const std::string& dir, int iterations);

/// The machine's hardware threads (at least 1).
size_t Cores();

/// Runs fn(i, worker) for i in [0, n) on `threads` threads; `worker` is
/// the index of the thread running item i.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
