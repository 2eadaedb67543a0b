// The benchmark's workloads. Each one derives all of its inputs from the
// workload seed, prints their digest, measures, checks the program's
// outputs, and prints the result line. End-to-end metrics come from the
// untraced run; `trace` selects the separate per-layer run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for span logs and the WAL probe.
  std::string out_dir;
  // served_mixed only: the server under test, on loopback.
  uint16_t port = 0;
  int server_pid = 0;
  std::string state_dir;
};

/// Latency samples a run must collect before it may stop.
constexpr size_t kMinSamples = 100;

/// construct_heavy: warm in-process Engine::Run.
int RunInProcess(const Args& args);

/// served_mixed: the query server under an open-loop request mix.
int RunServed(const Args& args);

/// Prints the per-layer metrics in their fixed order with units; a
/// metric the workload does not exercise reads 0.
void PrintLayerResult(bool correct, uint64_t attempted, uint64_t failed,
                      const std::map<std::string, double>& values);

/// Adds the median self time of each query stage, over the queries that
/// ran it, from per-query self times (SelfTimesByQuery), plus
/// trace.overhead_frac: the median over queries of (traced − untraced) /
/// untraced, with `untraced_ms` the Engine::Run time of each query id.
void AddStageMedians(
    const std::map<uint64_t, std::map<std::string, double>>& by_query,
    const std::map<uint64_t, double>& untraced_ms,
    std::map<std::string, double>* values);

/// Adds core.lambda, core.lambda2, core.bases, core.pairs and core.bins
/// as medians over `releases`.
void AddShapeMedians(const std::vector<privbasis::Release>& releases,
                     std::map<std::string, double>* values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
