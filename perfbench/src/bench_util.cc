#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "common/json.h"
#include "server/http.h"
#include "server/wire.h"
#include "store/wal.h"

namespace perfbench {

using privbasis::Item;
using privbasis::Release;

uint64_t InputStream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputStream::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

void Digest::Add(std::string_view text) {
  for (unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  hash_ ^= 0xff;  // field separator
  hash_ *= 1099511628211ULL;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool SameRelease(const Release& a, const Release& b) {
  Release x = a;
  Release y = b;
  x.epsilon_spent_total = y.epsilon_spent_total = 0.0;
  x.epsilon_remaining = y.epsilon_remaining = 0.0;
  return privbasis::server::ReleaseToJson(x).Dump() ==
         privbasis::server::ReleaseToJson(y).Dump();
}

std::vector<std::vector<Item>> MakeInlineTransactions(InputStream& in) {
  std::vector<std::vector<Item>> rows(4000);
  for (auto& row : rows) {
    const uint64_t length = 3 + in.Below(6);
    for (uint64_t i = 0; i < length; ++i) {
      // Skewed toward low ids so the dataset has frequent itemsets.
      const double u = in.Uniform();
      row.push_back(static_cast<Item>(20.0 * u * u));
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return rows;
}

privbasis::TransactionDatabase BuildDatabase(
    const std::vector<std::vector<Item>>& rows) {
  privbasis::TransactionDatabase::Builder builder(0);
  for (const auto& row : rows) builder.AddTransaction(row);
  return std::move(builder).Build().value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  privbasis::json::Value out;
  out.Set("correct", correct);
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  privbasis::json::Value body;
  for (const Metric& m : metrics) {
    privbasis::json::Value entry;
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    body.Set(m.name, std::move(entry));
  }
  out.Set("metrics", std::move(body));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

std::string RequestBytes(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\nConnection: close\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n" + body;
  return out;
}

namespace {

/// Median over `passes` passes of the mean per-item time of fn over
/// [0, n), in microseconds: one item is too short to time alone.
double MedianPassUs(size_t n, int passes, const std::function<void(size_t)>& fn) {
  std::vector<double> per_item;
  for (int p = 0; p < passes; ++p) {
    const auto start = Clock::now();
    for (size_t i = 0; i < n; ++i) fn(i);
    per_item.push_back(MsBetween(start, Clock::now()) * 1000.0 /
                       static_cast<double>(n));
  }
  return Median(std::move(per_item));
}

}  // namespace

double MedianParseUs(const std::vector<std::string>& request_bytes) {
  if (request_bytes.empty()) return 0.0;
  bool ok = true;
  const double us = MedianPassUs(request_bytes.size(), 7, [&](size_t i) {
    std::string buffer = request_bytes[i];
    privbasis::server::HttpRequest request;
    const auto parsed = privbasis::server::ParseHttpRequest(
        &buffer, privbasis::server::HttpLimits{}, &request);
    ok = ok && parsed.outcome == privbasis::server::HttpParseOutcome::kOk;
  });
  return ok ? us : 0.0;
}

double MedianSerializeUs(const std::vector<Release>& releases) {
  if (releases.empty()) return 0.0;
  size_t bytes = 0;
  const double us = MedianPassUs(releases.size(), 7, [&](size_t i) {
    privbasis::server::HttpResponse response;
    response.body = privbasis::server::ReleaseToJson(releases[i]).Dump();
    bytes += privbasis::server::SerializeHttpResponse(response).size();
  });
  return bytes > 0 ? us : 0.0;
}

WalCost MeasureWalAppend(const std::string& dir, int iterations) {
  namespace fs = std::filesystem;
  WalCost cost;
  fs::create_directories(dir);
  const std::string path = dir + "/budget.wal";
  fs::remove(path);
  {
    auto wal = privbasis::store::BudgetWal::Open(
        path, privbasis::store::FsyncMode::kCommit);
    if (wal.ok()) {
      const auto before = fs::file_size(path);
      std::vector<double> us;
      for (int i = 0; i < iterations; ++i) {
        const auto start = Clock::now();
        auto txn = (*wal)->AppendReserve("ds-1", 1.0, "pb");
        if (!txn.ok() ||
            !(*wal)->AppendCommit(*txn, "ds-1", 0.999999, "pb").ok()) {
          break;
        }
        us.push_back(MsBetween(start, Clock::now()) * 1000.0);
      }
      if (!us.empty()) {
        cost.append_us = Median(us);
        cost.bytes_per_query =
            static_cast<double>(fs::file_size(path) - before) /
            static_cast<double>(us.size());
      }
    }
  }
  fs::remove_all(dir);
  return cost;
}

size_t Cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t, size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i, t);
      }
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace perfbench
