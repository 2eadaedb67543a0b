// construct_heavy: one caller in a closed loop of warm
// Engine::Run queries, each with its own spec seed. After the loop, a
// separate phase times writes: register a dataset from in-memory
// transactions and drop it (the in-process twin of the served writes).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "engine/engine.h"
#include "eval/metrics.h"
#include "server/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace privbasis;

namespace {

struct InProcessConfig {
  SyntheticProfile profile;
  double scale = 1.0;
  size_t k = 0;
  double epsilon = 1.0;
  double limit_ms = 0.0;  ///< the workload's latency limit
};

/// construct_heavy: 49.5k transactions, so the data fits in per-core L2
/// and basis construction dominates. The latency limit sits above the
/// worst p90 that host noise alone gave in ten runs at the commit that
/// defined the benchmark (p90 ~420 ms, at most 484 ms; 4-core machine),
/// so slo_attainment drops only when the program gets slower.
InProcessConfig ConstructHeavy() {
  return {SyntheticProfile::Kosarak(0.05), 0.05, 300, 1.0, 600.0};
}

constexpr size_t kQueryListSize = 4096;
/// Generation seed of the dataset. The workload seed varies the queries
/// on fixed data.
constexpr uint64_t kDatasetSeed = 42;
/// Spec seed of the set-up's untimed query: the same set-up work in every
/// run, whatever the workload seed.
constexpr uint64_t kWarmSeed = 7;
constexpr size_t kInlineDatasets = 4;
/// The write phase, after the timed queries: writes paced 10 ms apart.
/// Back to back, 200 writes take ~50 ms, and their median followed the
/// host's sub-second speed swings (0.22–0.40 ms between phases of one
/// process). Paced, each write finds the core as an occasional write
/// does, and the samples span 2 s; the spread of the median over ten
/// runs fell from 0.17 to 0.06–0.07 in most sets.
constexpr size_t kWrites = 200;
constexpr auto kWriteGap = std::chrono::milliseconds(10);

struct Inputs {
  uint64_t gen_seed = 0;
  uint64_t warm_seed = 0;
  std::vector<uint64_t> spec_seeds;
  std::vector<std::vector<std::vector<Item>>> inline_rows;
};

Inputs MakeInputs(const Args& args, const InProcessConfig& config) {
  InputStream in(args.seed);
  Inputs inputs;
  inputs.gen_seed = kDatasetSeed;
  inputs.warm_seed = kWarmSeed;
  for (size_t i = 0; i < kQueryListSize; ++i) {
    inputs.spec_seeds.push_back(in.Next());
  }
  for (size_t i = 0; i < kInlineDatasets; ++i) {
    inputs.inline_rows.push_back(MakeInlineTransactions(in));
  }
  Digest digest;
  digest.Add(args.workload);
  digest.Add(config.profile.name);
  digest.Add(std::to_string(config.scale));
  digest.Add(inputs.gen_seed);
  digest.Add(config.k);
  digest.Add(std::to_string(config.epsilon));
  digest.Add(inputs.warm_seed);
  for (uint64_t s : inputs.spec_seeds) digest.Add(s);
  for (const auto& rows : inputs.inline_rows) {
    for (const auto& row : rows) {
      for (Item item : row) digest.Add(item);
      digest.Add("|");
    }
  }
  std::printf("inputs %s seed=%llu digest=%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), digest.Hex().c_str());
  return inputs;
}

QuerySpec SpecFor(const InProcessConfig& config, uint64_t seed) {
  return QuerySpec().WithTopK(config.k).WithEpsilon(config.epsilon).WithSeed(
      seed);
}

/// Wall times of one set-up, by step (ms).
struct SetupTimes {
  double generate_ms = 0, margin_ms = 0, index_ms = 0, total_s = 0;
};

/// Generation + caches (margin, index, ground truth) + one untimed query.
std::shared_ptr<Dataset> SetUp(const InProcessConfig& config,
                               const Inputs& inputs, SetupTimes* times) {
  const auto t0 = Clock::now();
  auto dataset = Dataset::FromProfile(config.profile, inputs.gen_seed);
  if (!dataset.ok()) return nullptr;
  std::shared_ptr<Dataset> ds = *dataset;
  const auto t1 = Clock::now();
  if (!ds->MarginSupport(config.k, QuerySpec().pb.eta).ok()) return nullptr;
  const auto t2 = Clock::now();
  ds->Index();
  const auto t3 = Clock::now();
  if (!ds->Truth(config.k).ok()) return nullptr;
  if (!Engine::Run(*ds, SpecFor(config, inputs.warm_seed)).ok()) return nullptr;
  times->generate_ms = MsBetween(t0, t1);
  times->margin_ms = MsBetween(t1, t2);
  times->index_ms = MsBetween(t2, t3);
  times->total_s = SecondsSince(t0);
  return ds;
}

constexpr int kSetups = 5;

/// Result of the set-up phase: the dataset of the last set-up plus the
/// per-step times of all of them.
struct SetupPhase {
  std::shared_ptr<Dataset> dataset;
  std::vector<SetupTimes> times;
};

SetupPhase SetUpRepeated(const InProcessConfig& config, const Inputs& inputs) {
  SetupPhase phase;
  for (int i = 0; i < kSetups; ++i) {
    phase.dataset.reset();  // the previous copy is not kept alive
    SetupTimes times;
    phase.dataset = SetUp(config, inputs, &times);
    if (phase.dataset == nullptr) return phase;
    phase.times.push_back(times);
  }
  return phase;
}

int RunUntraced(const Args& args, const InProcessConfig& config,
                const Inputs& inputs) {
  SetupPhase setup = SetUpRepeated(config, inputs);
  if (setup.dataset == nullptr) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  const Dataset& ds = *setup.dataset;
  auto truth = ds.Truth(config.k);

  std::vector<double> latency_ms;
  std::vector<QuerySpec> specs;
  std::vector<Release> releases;
  uint64_t attempted = 0, failed = 0;
  const auto start = Clock::now();
  for (size_t i = 0; i < inputs.spec_seeds.size(); ++i) {
    if (SecondsSince(start) >= args.seconds &&
        latency_ms.size() >= kMinSamples) {
      break;
    }
    const QuerySpec spec = SpecFor(config, inputs.spec_seeds[i]);
    const auto q0 = Clock::now();
    auto release = Engine::Run(ds, spec);
    const auto q1 = Clock::now();
    ++attempted;
    if (!release.ok()) {
      ++failed;
      latency_ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      latency_ms.push_back(MsBetween(q0, q1));
      specs.push_back(spec);
      releases.push_back(std::move(*release));
    }
  }
  const double elapsed_s = SecondsSince(start);
  const uint64_t queries = attempted;

  // The write phase: register a dataset from in-memory transactions, then
  // drop it. A dataset that does not hold its transactions fails the run.
  std::vector<double> write_ms;
  bool writes_held = true;
  const auto writes_start = Clock::now();
  for (size_t i = 0; i < kWrites; ++i) {
    const auto& rows = inputs.inline_rows[i % inputs.inline_rows.size()];
    std::this_thread::sleep_until(writes_start +
                                  static_cast<int64_t>(i) * kWriteGap);
    ++attempted;
    const auto w0 = Clock::now();
    auto scratch = Dataset::Create(BuildDatabase(rows));
    const auto w1 = Clock::now();
    const bool held = scratch->Stats().num_transactions == rows.size();
    const auto w2 = Clock::now();
    scratch.reset();
    write_ms.push_back(MsBetween(w0, w1) + MsBetween(w2, Clock::now()));
    if (!held) ++failed;
    writes_held = writes_held && held;
  }

  // Output check: every release equals a fresh Engine::Run of its spec.
  std::vector<char> same(releases.size(), 0);
  ParallelFor(releases.size(), Cores(), [&](size_t i, size_t) {
    auto fresh = Engine::Run(ds, specs[i]);
    same[i] = fresh.ok() && SameRelease(*fresh, releases[i]);
  });
  bool correct = truth.ok() && writes_held;
  size_t mismatches = 0;
  for (char s : same) mismatches += s ? 0 : 1;
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu releases differ from a fresh Engine::Run\n",
                 mismatches);
    correct = false;
  }

  std::vector<double> fnr;
  if (truth.ok()) {
    for (const Release& r : releases) {
      fnr.push_back(FalseNegativeRate((*truth)->topk.itemsets, r.itemsets));
    }
  }
  size_t within = 0;
  for (double ms : latency_ms) within += ms <= config.limit_ms ? 1 : 0;
  std::vector<double> setup_s;
  for (const SetupTimes& t : setup.times) setup_s.push_back(t.total_s);

  std::printf("queries=%zu elapsed_s=%.3f mismatches=%zu\n", releases.size(),
              elapsed_s, mismatches);
  PrintResult(correct, attempted, failed,
              {{"setup_s", Median(setup_s), "s"},
               {"qps", static_cast<double>(releases.size()) / elapsed_s, "1/s"},
               {"goodput_qps", static_cast<double>(within) / elapsed_s, "1/s"},
               {"latency_p50_ms", LatencyPercentile(latency_ms, 0.5, elapsed_s),
                "ms"},
               {"latency_p90_ms", LatencyPercentile(latency_ms, 0.9, elapsed_s),
                "ms"},
               {"slo_attainment",
                static_cast<double>(within) / static_cast<double>(queries),
                "fraction"},
               {"write_latency_p50_ms", Median(write_ms), "ms"},
               {"fnr", Mean(fnr), "fraction"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

int RunTraced(const Args& args, const InProcessConfig& config,
              const Inputs& inputs) {
  SetupPhase setup = SetUpRepeated(config, inputs);
  if (setup.dataset == nullptr) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  Dataset& ds = *setup.dataset;
  AttachTimingExecutor(ds);

  SpanLog log;
  std::map<uint64_t, double> untraced_ms;
  std::vector<Release> releases;
  std::vector<std::string> request_bytes;
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  const auto start = Clock::now();
  for (size_t i = 0; i < inputs.spec_seeds.size(); ++i) {
    if (SecondsSince(start) >= args.seconds && i >= 10) break;
    const QuerySpec spec = SpecFor(config, inputs.spec_seeds[i]);
    ++attempted;
    // Alternate which of the pair runs first, so neither always finds
    // the caches the other warmed.
    Result<Release> direct = Status::Internal("not run");
    Result<Release> replay = Status::Internal("not run");
    double direct_ms = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (i % 2 == 0)) {
        const auto t0 = Clock::now();
        direct = Engine::Run(ds, spec);
        direct_ms = MsBetween(t0, Clock::now());
      } else {
        SpanLog::Scope scope(&log, i);
        replay = StageReplay(ds, spec);
      }
    }
    if (!direct.ok() || !replay.ok()) {
      ++failed;
      continue;
    }
    // Replay fidelity: the staged replay must reproduce Engine::Run.
    if (!SameRelease(*direct, *replay)) ++mismatches;
    untraced_ms[i] = direct_ms;
    json::Value body = server::QuerySpecToJson(spec);
    body.Set("dataset", "ds-1");
    request_bytes.push_back(RequestBytes("POST", "/v1/query", body.Dump()));
    releases.push_back(std::move(*direct));
  }

  std::map<std::string, double> values;
  std::vector<double> generate, margin, index;
  for (const SetupTimes& t : setup.times) {
    generate.push_back(t.generate_ms);
    margin.push_back(t.margin_ms);
    index.push_back(t.index_ms);
  }
  values["data.generate_ms"] = Median(generate);
  values["engine.margin_ms"] = Median(margin);
  values["data.index_build_ms"] = Median(index);
  // One (dataset, k) pair: the mines after the timed phase must stay 1.
  values["engine.margin_mines"] =
      static_cast<double>(ds.cache_counters().margin_mines);
  AddStageMedians(SelfTimesByQuery({&log}), untraced_ms, &values);
  AddShapeMedians(releases, &values);
  values["server.parse_us"] = MedianParseUs(request_bytes);
  values["server.serialize_us"] = MedianSerializeUs(releases);
  const WalCost wal = MeasureWalAppend(
      args.out_dir + "/wal-probe-" + std::to_string(::getpid()), 50);
  values["store.wal_append_us"] = wal.append_us;
  values["store.wal_bytes_per_query"] = wal.bytes_per_query;

  WriteSpans(args.out_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".jsonl",
             {&log});
  if (mismatches > 0) {
    std::fprintf(stderr, "%llu staged replays differ from Engine::Run\n",
                 static_cast<unsigned long long>(mismatches));
  }
  std::printf("traced_queries=%zu mismatches=%llu\n", releases.size(),
              static_cast<unsigned long long>(mismatches));
  PrintLayerResult(mismatches == 0 && !releases.empty(), attempted, failed,
                   values);
  return 0;
}

}  // namespace

int RunInProcess(const Args& args) {
  const InProcessConfig config = ConstructHeavy();
  const Inputs inputs = MakeInputs(args, config);
  return args.trace ? RunTraced(args, config, inputs)
                    : RunUntraced(args, config, inputs);
}

}  // namespace perfbench
