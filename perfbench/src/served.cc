// served_mixed: privbasis_server over loopback, driven by an open-loop
// generator. Arrivals follow a seeded Poisson schedule; one sender thread
// per core takes the next due operation, so an operation that finds every
// sender busy starts late and its latency, timed from the scheduled send
// time, shows the wait.
//
// Operation mix, fixed per block of 20 (the k=300 query last, the rest
// shuffled):
//   11 kosarak-0.05 k=50 queries       1 kosarak-0.05 k=300 query
//    4 mushroom k=100 queries (2 with rules)
//    2 GET /v1/datasets/:id/budget     2 writes: register an inline dataset,
//                                        query it once, DELETE it
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "engine/engine.h"
#include "eval/metrics.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/wire.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace privbasis;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr double kKosarakScale = 0.05;
constexpr double kMushroomScale = 1.0;
constexpr double kLimitMs = 100.0;  ///< the workload's latency limit
/// Open-loop arrivals per second: about a quarter of the mix's
/// closed-loop capacity (~119 ops/s on a 4-core machine at the commit
/// that defined the benchmark). Frozen, so later changes are measured at
/// the same load; perfbench/README.md says why not 60% of capacity.
constexpr double kRate = 30.0;
/// Served latency figures are taken per window of the schedule, a second
/// for query latency and five (~15 writes) for write latency; the lower
/// quartile over windows is reported.
constexpr double kLatencyWindowS = 1.0;
constexpr double kWriteWindowS = 5.0;
constexpr double kQueryEpsilon = 1.0;
constexpr int64_t kTimeoutMs = 30'000;
constexpr int kSetups = 5;
/// Generation seed of both served datasets. The workload seed varies the
/// queries and arrivals on fixed data.
constexpr uint64_t kDatasetSeed = 42;

enum class OpKind { kK50, kK300, kMushroom, kMushroomRules, kBudget, kWrite };

/// One block of the mix, drawn from the back, so kK300 comes last.
constexpr OpKind kBlock[20] = {
    OpKind::kK300,     OpKind::kK50,      OpKind::kK50,
    OpKind::kK50,      OpKind::kK50,      OpKind::kK50,
    OpKind::kK50,      OpKind::kK50,      OpKind::kK50,
    OpKind::kK50,      OpKind::kK50,      OpKind::kK50,
    OpKind::kWrite,    OpKind::kMushroom, OpKind::kMushroom,
    OpKind::kMushroomRules, OpKind::kMushroomRules, OpKind::kBudget,
    OpKind::kBudget,   OpKind::kWrite};

struct Op {
  OpKind kind = OpKind::kK50;
  double at_s = 0.0;  ///< scheduled send time from the run's start
  uint64_t spec_seed = 0;
  bool on_mushroom = false;  ///< budget reads: which dataset
  std::vector<std::vector<Item>> inline_rows;  ///< writes only
};

struct Inputs {
  uint64_t kosarak_seed = 0;
  uint64_t mushroom_seed = 0;
  std::vector<uint64_t> warm_seeds;
  std::vector<Op> ops;
};

Inputs MakeInputs(const Args& args) {
  InputStream in(args.seed);
  Inputs inputs;
  inputs.kosarak_seed = kDatasetSeed;
  inputs.mushroom_seed = kDatasetSeed;
  // Set-up queries use fixed spec seeds: the same set-up work in every run.
  for (int i = 0; i < 3 * kSetups; ++i) inputs.warm_seeds.push_back(i + 1);
  // A Poisson process conditioned on its count: rate × seconds arrivals,
  // uniform over the window. Fixing the count keeps the offered load
  // the same in every run. A short run is stretched to kMinSamples.
  const double span_s =
      std::max(args.seconds, static_cast<double>(kMinSamples) / kRate);
  const size_t count = static_cast<size_t>(std::llround(kRate * span_s));
  std::vector<double> arrivals;
  for (size_t i = 0; i < count; ++i) {
    arrivals.push_back(in.Uniform() * span_s);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<OpKind> block;
  for (double t : arrivals) {
    if (block.empty()) {
      // The k = 300 query closes every block; the rest are shuffled.
      // Spacing the slow queries evenly keeps their overlaps, and so the
      // tail, from depending on how the seed happened to cluster them.
      block.assign(std::begin(kBlock), std::end(kBlock));
      for (size_t i = block.size() - 1; i > 1; --i) {
        std::swap(block[i], block[1 + in.Below(i)]);
      }
    }
    Op op;
    op.kind = block.back();
    block.pop_back();
    op.at_s = t;
    op.spec_seed = in.Next();
    op.on_mushroom = in.Below(2) == 1;
    if (op.kind == OpKind::kWrite) op.inline_rows = MakeInlineTransactions(in);
    inputs.ops.push_back(std::move(op));
  }
  Digest digest;
  digest.Add(args.workload);
  digest.Add(inputs.kosarak_seed);
  digest.Add(inputs.mushroom_seed);
  digest.Add(std::to_string(kRate));
  for (uint64_t s : inputs.warm_seeds) digest.Add(s);
  for (const Op& op : inputs.ops) {
    digest.Add(static_cast<uint64_t>(op.kind));
    digest.Add(static_cast<uint64_t>(std::llround(op.at_s * 1e6)));
    digest.Add(op.spec_seed);
    digest.Add(op.on_mushroom ? 1 : 0);
    for (const auto& row : op.inline_rows) {
      for (Item item : row) digest.Add(item);
      digest.Add("|");
    }
  }
  std::printf("inputs %s seed=%llu ops=%zu digest=%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), inputs.ops.size(),
              digest.Hex().c_str());
  return inputs;
}

std::string QueryBody(const std::string& dataset, size_t k, uint64_t seed,
                      bool rules) {
  json::Value body;
  body.Set("dataset", dataset);
  body.Set("k", k);
  body.Set("epsilon", kQueryEpsilon);
  body.Set("seed", seed);
  if (rules) {
    json::Value r;
    r.Set("min_confidence", 0.6);
    body.Set("rules", std::move(r));
  }
  return body.Dump();
}

std::string InlineBody(const std::vector<std::vector<Item>>& rows) {
  json::Value::Array txns;
  for (const auto& row : rows) {
    json::Value::Array items;
    for (Item item : row) items.emplace_back(static_cast<uint64_t>(item));
    txns.emplace_back(std::move(items));
  }
  json::Value body;
  body.Set("transactions", std::move(txns));
  return body.Dump();
}

/// One HTTP call as the generator saw it.
struct Call {
  int status = 0;  ///< 0 = transport error
  double ms = 0.0;
  std::string body;
};

class Client {
 public:
  Client(std::string host, uint16_t port) : host_(std::move(host)), port_(port) {}

  Call Do(const std::string& method, const std::string& target,
          const std::string& body) const {
    Call call;
    const auto t0 = Clock::now();
    auto response =
        server::HttpCall(host_, port_, method, target, body, kTimeoutMs);
    call.ms = MsBetween(t0, Clock::now());
    if (response.ok()) {
      call.status = response->status;
      call.body = std::move(response->body);
    }
    return call;
  }

 private:
  std::string host_;
  uint16_t port_;
};

bool IsRefusal(int status) { return status == 429 || status == 503; }

/// A query answered 200, kept for the output checks.
struct Answer {
  std::string dataset;       ///< server id
  std::string request_body;  ///< exactly what was sent
  std::string response_body;
  double service_ms = 0.0;   ///< from the actual send
  size_t op = 0;             ///< index into the schedule; SIZE_MAX = warm-up
};

struct OpOutcome {
  bool ok = false;       ///< every call answered 2xx
  bool refused = false;  ///< some call answered 429/503
  double latency_ms = std::numeric_limits<double>::infinity();
  double lag_ms = 0.0;
  /// Register and delete call times of a write; < 0 = none.
  double register_ms = -1.0, delete_ms = -1.0;
  /// Datasets of queries answered 408: cancelled mid-run, so their full
  /// reservation was charged.
  std::vector<std::string> cancelled_on;
};

struct Registered {
  std::string kosarak, mushroom;
};

std::string RegisterProfile(const Client& client, const char* profile,
                            double scale, uint64_t seed) {
  json::Value body;
  body.Set("profile", profile);
  body.Set("scale", scale);
  body.Set("seed", seed);
  const Call call = client.Do("POST", "/v1/datasets", body.Dump());
  if (call.status != 201) return "";
  auto parsed = json::Parse(call.body);
  if (!parsed.ok() || parsed->Find("dataset") == nullptr) return "";
  return parsed->Find("dataset")->GetString().value_or("");
}

double WalSize(const std::string& state_dir) {
  std::error_code ec;
  const auto size =
      std::filesystem::file_size(state_dir + "/budget.wal", ec);
  return ec ? 0.0 : static_cast<double>(size);
}

Result<server::StatsSnapshot> Stats(const Client& client) {
  const Call call = client.Do("GET", "/v1/stats", "");
  if (call.status != 200) return Status::Unavailable("GET /v1/stats failed");
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value v, json::Parse(call.body));
  return server::StatsFromJson(v);
}

double ServerPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Lower quartile, over the schedule's windows of `window_s` seconds, of
/// `stat` of the indices of the operations due in each window; windows
/// where `stat` is NaN are left out. Host load on a shared machine comes
/// in episodes that slow the windows they cover; the lower quartile reads
/// the windows they missed, while a slower server slows every window.
double LowerQuartileOverWindows(
    const std::vector<Op>& ops, double window_s,
    const std::function<double(const std::vector<size_t>&)>& stat) {
  std::map<int64_t, std::vector<size_t>> by_window;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_window[static_cast<int64_t>(ops[i].at_s / window_s)].push_back(i);
  }
  std::vector<double> per_window;
  for (const auto& [window, indices] : by_window) {
    const double value = stat(indices);
    if (!std::isnan(value)) per_window.push_back(value);
  }
  return Percentile(std::move(per_window), 0.25);
}

/// The in-process twin of each served dataset, for the output checks.
struct Replicas {
  std::shared_ptr<Dataset> kosarak, mushroom;
  double generate_ms = 0.0, margin_ms = 0.0, index_ms = 0.0;
};

Replicas BuildReplicas(const Inputs& inputs) {
  Replicas r;
  const auto t0 = Clock::now();
  r.kosarak = Dataset::FromProfile(SyntheticProfile::Kosarak(kKosarakScale),
                                   inputs.kosarak_seed)
                  .value();
  const auto t1 = Clock::now();
  (void)r.kosarak->MarginSupport(50, QuerySpec().pb.eta);
  const auto t2 = Clock::now();
  r.kosarak->Index();
  const auto t3 = Clock::now();
  r.generate_ms = MsBetween(t0, t1);
  r.margin_ms = MsBetween(t1, t2);
  r.index_ms = MsBetween(t2, t3);
  r.mushroom = Dataset::FromProfile(SyntheticProfile::Mushroom(kMushroomScale),
                                    inputs.mushroom_seed)
                   .value();
  return r;
}

}  // namespace

int RunServed(const Args& args) {
  const Inputs inputs = MakeInputs(args);
  const Client client(kHost, args.port);

  // ---- set-up: register both datasets and warm each (dataset, k) once;
  // repeated, and all but the last pair of datasets deleted again.
  std::vector<double> setup_s;
  Registered ds;
  std::vector<Answer> answers;  // every 200 query, warm-ups included
  for (int round = 0; round < kSetups; ++round) {
    const auto t0 = Clock::now();
    Registered r;
    r.kosarak = RegisterProfile(client, "kosarak", kKosarakScale,
                                inputs.kosarak_seed);
    r.mushroom = RegisterProfile(client, "mushroom", kMushroomScale,
                                 inputs.mushroom_seed);
    if (r.kosarak.empty() || r.mushroom.empty()) {
      std::fprintf(stderr, "dataset registration failed\n");
      return 1;
    }
    const std::pair<const std::string*, size_t> warm[] = {
        {&r.mushroom, 100}, {&r.kosarak, 50}, {&r.kosarak, 300}};
    std::vector<Answer> round_answers;
    for (int w = 0; w < 3; ++w) {
      Answer a;
      a.dataset = *warm[w].first;
      a.request_body = QueryBody(a.dataset, warm[w].second,
                                 inputs.warm_seeds[round * 3 + w], false);
      const Call call = client.Do("POST", "/v1/query", a.request_body);
      if (call.status != 200) {
        std::fprintf(stderr, "warm-up query failed: %d\n", call.status);
        return 1;
      }
      a.response_body = call.body;
      a.op = SIZE_MAX;
      round_answers.push_back(std::move(a));
    }
    setup_s.push_back(SecondsSince(t0));
    if (round + 1 < kSetups) {
      client.Do("DELETE", "/v1/datasets/" + r.kosarak, "");
      client.Do("DELETE", "/v1/datasets/" + r.mushroom, "");
    } else {
      ds = r;
      answers = std::move(round_answers);
    }
  }

  auto stats_before = Stats(client);
  const double wal_before = WalSize(args.state_dir);

  // ---- the timed open loop.
  const std::vector<Op>& ops = inputs.ops;
  std::vector<OpOutcome> outcomes(ops.size());
  std::vector<std::vector<Answer>> op_answers(ops.size());
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto sender = [&] {
    for (size_t i = next.fetch_add(1); i < ops.size(); i = next.fetch_add(1)) {
      const Op& op = ops[i];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(op.at_s));
      std::this_thread::sleep_until(due);
      OpOutcome& out = outcomes[i];
      out.lag_ms = MsBetween(due, Clock::now());
      bool ok = true, refused = false;
      auto record = [&](const Call& call) {
        if (call.status / 100 != 2) ok = false;
        if (IsRefusal(call.status)) refused = true;
      };
      auto query = [&](const std::string& dataset, size_t k, bool rules) {
        Answer a;
        a.dataset = dataset;
        a.request_body = QueryBody(dataset, k, op.spec_seed, rules);
        const Call call = client.Do("POST", "/v1/query", a.request_body);
        record(call);
        if (call.status == 408) out.cancelled_on.push_back(dataset);
        if (call.status == 200) {
          a.response_body = call.body;
          a.service_ms = call.ms;
          a.op = i;
          op_answers[i].push_back(std::move(a));
        }
      };
      switch (op.kind) {
        case OpKind::kK50: query(ds.kosarak, 50, false); break;
        case OpKind::kK300: query(ds.kosarak, 300, false); break;
        case OpKind::kMushroom: query(ds.mushroom, 100, false); break;
        case OpKind::kMushroomRules: query(ds.mushroom, 100, true); break;
        case OpKind::kBudget:
          record(client.Do("GET",
                           "/v1/datasets/" +
                               (op.on_mushroom ? ds.mushroom : ds.kosarak) +
                               "/budget",
                           ""));
          break;
        case OpKind::kWrite: {
          const Call reg =
              client.Do("POST", "/v1/datasets", InlineBody(op.inline_rows));
          record(reg);
          if (reg.status != 201) break;
          auto parsed = json::Parse(reg.body);
          const std::string id =
              parsed.ok() && parsed->Find("dataset") != nullptr
                  ? parsed->Find("dataset")->GetString().value_or("")
                  : "";
          query(id, 10, false);
          const Call del = client.Do("DELETE", "/v1/datasets/" + id, "");
          record(del);
          if (del.status == 204) {
            out.register_ms = reg.ms;
            out.delete_ms = del.ms;
          }
          break;
        }
      }
      out.ok = ok;
      out.refused = refused;
      out.latency_ms = ok ? MsBetween(due, Clock::now())
                          : std::numeric_limits<double>::infinity();
    }
  };
  std::vector<std::thread> senders;
  for (size_t t = 0; t < Cores(); ++t) senders.emplace_back(sender);
  for (auto& th : senders) th.join();
  const double window_s =
      std::max(args.seconds, SecondsSince(start));

  auto stats_after = Stats(client);
  const double wal_after = WalSize(args.state_dir);
  const double peak_rss_mb = ServerPeakRssMb(args.server_pid);

  // ---- tallies.
  uint64_t attempted = ops.size(), failed = 0, refused = 0, succeeded = 0;
  uint64_t cancelled = 0, within = 0, query_200 = 0;
  std::vector<double> lag_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpOutcome& o = outcomes[i];
    lag_ms.push_back(o.lag_ms);
    cancelled += o.cancelled_on.size();
    if (o.ok) {
      ++succeeded;
      within += o.latency_ms <= kLimitMs ? 1 : 0;
    } else if (o.refused) {
      ++refused;
    } else {
      ++failed;
    }
    for (Answer& a : op_answers[i]) {
      ++query_200;
      answers.push_back(std::move(a));
    }
  }
  std::printf(
      "ops=%llu succeeded=%llu refused=%llu failed=%llu cancelled=%llu "
      "window_s=%.3f\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(succeeded),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(cancelled), window_s);

  // ---- output checks. Every served 200 release must equal an
  // in-process Engine::Run on the same profile, generation seed and spec.
  Replicas replicas = BuildReplicas(inputs);
  if (args.trace) {
    AttachTimingExecutor(*replicas.kosarak);
    AttachTimingExecutor(*replicas.mushroom);
  }
  std::vector<SpanLog> logs(Cores());
  std::vector<char> same(answers.size(), 0);
  std::vector<double> direct_ms(answers.size(), 0.0), served_eps(answers.size(), 0.0);
  std::vector<double> fnr(answers.size(), 0.0);
  std::vector<Release> served_releases(answers.size());
  ParallelFor(answers.size(), Cores(), [&](size_t i, size_t worker) {
    const Answer& a = answers[i];
    auto request = json::Parse(a.request_body);
    auto response = json::Parse(a.response_body);
    if (!request.ok() || !response.ok()) return;
    auto spec = server::QuerySpecFromJson(*request);
    auto served = server::ReleaseFromJson(*response);
    if (!spec.ok() || !served.ok()) return;
    std::shared_ptr<Dataset> dataset;
    if (a.dataset == ds.kosarak) {
      dataset = replicas.kosarak;
    } else if (a.dataset == ds.mushroom) {
      dataset = replicas.mushroom;
    } else {
      dataset = Dataset::Create(BuildDatabase(ops[a.op].inline_rows));
      if (args.trace) AttachTimingExecutor(*dataset);
      // A fresh dataset with one query: its ledger total is that query.
      if (served->epsilon_spent_total != served->epsilon_spent) return;
    }
    const auto t0 = Clock::now();
    auto direct = Engine::Run(*dataset, *spec);
    direct_ms[i] = MsBetween(t0, Clock::now());
    if (!direct.ok() || !SameRelease(*direct, *served)) return;
    if (args.trace) {
      SpanLog::Scope scope(&logs[worker], i);
      auto replay = StageReplay(*dataset, *spec);
      if (!replay.ok() || !SameRelease(*replay, *served)) return;
    }
    auto truth = dataset->Truth(spec->k);
    if (!truth.ok()) return;
    fnr[i] = FalseNegativeRate((*truth)->topk.itemsets, served->itemsets);
    served_eps[i] = served->epsilon_spent;
    served_releases[i] = std::move(*served);
    same[i] = 1;
  });
  size_t mismatches = 0;
  for (char s : same) mismatches += s ? 0 : 1;
  bool correct = mismatches == 0 && stats_before.ok() && stats_after.ok();
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu served releases failed the checks\n", mismatches);
  }

  // ε conservation through the WAL-backed ledger: each dataset's spent
  // equals the ε of its 200 answers plus the full reservation of every
  // query cancelled mid-run.
  for (const std::string* id : {&ds.kosarak, &ds.mushroom}) {
    double expected = 0.0;
    for (size_t i = 0; i < answers.size(); ++i) {
      if (answers[i].dataset == *id) expected += served_eps[i];
    }
    for (const OpOutcome& o : outcomes) {
      for (const std::string& on : o.cancelled_on) {
        if (on == *id) expected += kQueryEpsilon;
      }
    }
    const Call call = client.Do("GET", "/v1/datasets/" + *id + "/budget", "");
    auto body = json::Parse(call.body);
    double spent = -1.0, reserved = -1.0;
    if (call.status == 200 && body.ok()) {
      if (const json::Value* v = body->Find("spent")) spent = v->GetDouble().value_or(-1.0);
      if (const json::Value* v = body->Find("reserved")) reserved = v->GetDouble().value_or(-1.0);
    }
    if (std::abs(spent - expected) > 1e-9 * std::max(1.0, expected) ||
        reserved != 0.0) {
      std::fprintf(stderr, "ledger of %s: spent %.17g, answers sum %.17g\n",
                   id->c_str(), spent, expected);
      correct = false;
    }
  }

  if (!args.trace) {
    auto latency = [&](double q) {
      return LowerQuartileOverWindows(
          ops, kLatencyWindowS, [&](const std::vector<size_t>& in_window) {
            std::vector<double> ms;
            for (size_t i : in_window) ms.push_back(outcomes[i].latency_ms);
            return LatencyPercentile(ms, q, window_s);
          });
    };
    // A write's register and delete take ~5.5 and ~1 ms, but the delete's
    // tail reaches 3–8 ms on a busy host: the sum of the two medians keeps
    // that tail out, where the median of the sums took it in.
    const double write_ms = LowerQuartileOverWindows(
        ops, kWriteWindowS, [&](const std::vector<size_t>& in_window) {
          std::vector<double> reg, del;
          for (size_t i : in_window) {
            if (outcomes[i].register_ms < 0.0) continue;
            reg.push_back(outcomes[i].register_ms);
            del.push_back(outcomes[i].delete_ms);
          }
          return reg.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : Median(reg) + Median(del);
        });
    PrintResult(correct, attempted, failed,
                {{"setup_s", Median(setup_s), "s"},
                 {"qps", static_cast<double>(query_200) / window_s, "1/s"},
                 {"goodput_qps", static_cast<double>(within) / window_s, "1/s"},
                 {"latency_p50_ms", latency(0.5), "ms"},
                 {"latency_p90_ms", latency(0.9), "ms"},
                 {"slo_attainment",
                  static_cast<double>(within) / static_cast<double>(attempted),
                  "fraction"},
                 {"write_latency_p50_ms", write_ms, "ms"},
                 {"fnr", Mean(fnr), "fraction"},
                 {"peak_rss_mb", peak_rss_mb, "MB"}});
    return 0;
  }

  // ---- per-layer metrics.
  std::map<std::string, double> values;
  values["data.generate_ms"] = replicas.generate_ms;
  values["engine.margin_ms"] = replicas.margin_ms;
  values["data.index_build_ms"] = replicas.index_ms;
  // Replica caches: one margin mine per (dataset, k) the mix queries —
  // kosarak at k = 50 and 300, mushroom at k = 100.
  values["engine.margin_mines"] =
      static_cast<double>(replicas.kosarak->cache_counters().margin_mines +
                          replicas.mushroom->cache_counters().margin_mines) /
      3.0;
  std::vector<const SpanLog*> log_ptrs;
  for (const SpanLog& l : logs) log_ptrs.push_back(&l);
  std::map<uint64_t, double> untraced_ms;
  for (size_t i = 0; i < answers.size(); ++i) untraced_ms[i] = direct_ms[i];
  AddStageMedians(SelfTimesByQuery(log_ptrs), untraced_ms, &values);
  AddShapeMedians(served_releases, &values);
  if (stats_before.ok() && stats_after.ok()) {
    const auto& b = *stats_before;
    const auto& a = *stats_after;
    const double completed =
        static_cast<double>(a.queries_completed - b.queries_completed);
    const double batches = static_cast<double>(a.batches - b.batches);
    const double batched =
        static_cast<double>(a.batched_queries - b.batched_queries);
    const double admitted =
        static_cast<double>(a.queries_admitted - b.queries_admitted);
    const double shed = static_cast<double>(
        (a.queries_shed_predicted - b.queries_shed_predicted) +
        (a.queries_shed_queue - b.queries_shed_queue) +
        (a.connections_shed - b.connections_shed));
    double sent = 0.0;
    for (const Op& op : ops) sent += op.kind == OpKind::kBudget ? 0.0 : 1.0;
    values["batch.batched_frac"] = completed > 0 ? batched / completed : 0.0;
    values["batch.mean_batch"] = batches > 0 ? batched / batches : 0.0;
    values["batch.scans_saved_per_query"] =
        completed > 0
            ? static_cast<double>(a.scans_saved - b.scans_saved) / completed
            : 0.0;
    values["admission.shed_frac"] = sent > 0 ? shed / sent : 0.0;
    values["admission.cancelled_frac"] =
        admitted > 0
            ? static_cast<double>(a.queries_cancelled - b.queries_cancelled) /
                  admitted
            : 0.0;
  }
  std::vector<double> service_ms, timed_direct_ms;
  std::vector<std::string> request_bytes;
  for (size_t i = 0; i < answers.size(); ++i) {
    request_bytes.push_back(
        RequestBytes("POST", "/v1/query", answers[i].request_body));
    if (answers[i].op == SIZE_MAX) continue;
    service_ms.push_back(answers[i].service_ms);
    timed_direct_ms.push_back(direct_ms[i]);
  }
  values["server.overhead_ms"] = Median(service_ms) - Median(timed_direct_ms);
  // How far the admission cost model's latency prediction, at its final
  // calibration, is from the served time of the same queries.
  if (stats_after.ok()) {
    std::vector<double> ratio;
    for (size_t i = 0; i < answers.size(); ++i) {
      const Answer& a = answers[i];
      if (a.op == SIZE_MAX || !same[i] || a.service_ms <= 0.0) continue;
      const Dataset* dataset = a.dataset == ds.kosarak    ? replicas.kosarak.get()
                               : a.dataset == ds.mushroom ? replicas.mushroom.get()
                                                          : nullptr;
      if (dataset == nullptr) continue;
      auto request = json::Parse(a.request_body);
      auto spec = server::QuerySpecFromJson(*request);
      if (!spec.ok()) continue;
      const double predicted_ms = server::CostModel::WorkUnits(dataset->Stats(), *spec) *
                                  stats_after->ns_per_unit * 1e-6;
      ratio.push_back(predicted_ms / a.service_ms);
    }
    values["admission.predicted_over_actual"] = Median(std::move(ratio));
  }
  values["server.parse_us"] = MedianParseUs(request_bytes);
  values["server.serialize_us"] = MedianSerializeUs(served_releases);
  values["store.wal_bytes_per_query"] =
      query_200 > 0 ? (wal_after - wal_before) / static_cast<double>(query_200)
                    : 0.0;
  const WalCost wal = MeasureWalAppend(
      args.out_dir + "/wal-probe-" + std::to_string(::getpid()), 50);
  values["store.wal_append_us"] = wal.append_us;
  values["gen.lag_p90_ms"] = Percentile(lag_ms, 0.9);
  WriteSpans(args.out_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".jsonl",
             log_ptrs);
  PrintLayerResult(correct, attempted, failed, values);
  return 0;
}

}  // namespace perfbench
