#include "common/env.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace privbasis {

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<int64_t>(parsed);
}

double GetEnvDouble(const std::string& name, double fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return parsed;
}

std::string GetEnvString(const std::string& name,
                         const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return fallback;
  return std::string(v);
}

double BenchScale() {
  return std::clamp(GetEnvDouble("PRIVBASIS_SCALE", 1.0), 0.01, 10.0);
}

int BenchRepeats() {
  return static_cast<int>(
      std::clamp<int64_t>(GetEnvInt("PRIVBASIS_REPEATS", 3), 1, 1000));
}

int NumThreads() {
  const int64_t hw =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp<int64_t>(
      GetEnvInt("PRIVBASIS_THREADS", std::max<int64_t>(1, hw)), 1, 64));
}

int NumShards() {
  return static_cast<int>(
      std::clamp<int64_t>(GetEnvInt("PRIVBASIS_SHARDS", 1), 1, 64));
}

}  // namespace privbasis
