#include "common/math_util.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace privbasis {

double LogFactorial(uint64_t n) {
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double LogChoose(uint64_t n, uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

double LogCandidateSpaceSize(uint64_t n, uint64_t m) {
  // logsumexp over log C(n, i), i = 1..m.
  double hi = -std::numeric_limits<double>::infinity();
  std::vector<double> terms;
  terms.reserve(m);
  for (uint64_t i = 1; i <= m && i <= n; ++i) {
    double lc = LogChoose(n, i);
    terms.push_back(lc);
    hi = std::max(hi, lc);
  }
  if (terms.empty()) return -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (double t : terms) sum += std::exp(t - hi);
  return hi + std::log(sum);
}

std::vector<uint32_t> DescendingOrder(std::span<const uint64_t> values) {
  assert(values.size() <= UINT32_MAX);
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  // Every pass sorts on a complemented digit and is stable, and the
  // input starts in index order: descending value, ascending index. Only
  // the digits the largest value occupies need a pass; passes whose
  // digit is the same for every index are skipped.
  constexpr unsigned kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const uint64_t max_value =
      values.empty() ? 0 : *std::max_element(values.begin(), values.end());
  const unsigned bits = static_cast<unsigned>(std::bit_width(max_value));
  std::vector<uint32_t> scratch(order.size());
  std::vector<size_t> offsets(kDigitMask + 1);
  for (unsigned shift = 0; shift < bits; shift += kDigitBits) {
    auto digit = [&](uint32_t idx) {
      return kDigitMask - ((values[idx] >> shift) & kDigitMask);
    };
    std::fill(offsets.begin(), offsets.end(), 0);
    for (uint32_t idx : order) ++offsets[digit(idx)];
    if (offsets[digit(order[0])] == order.size()) continue;
    size_t sum = 0;
    for (size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (uint32_t idx : order) scratch[offsets[digit(idx)]++] = idx;
    order.swap(scratch);
  }
  return order;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(xs.begin(), xs.begin() + mid);
  return 0.5 * (lo + hi);
}

double SampleStdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double StandardError(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  return SampleStdDev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double AddOnesSequentially(double x, uint64_t k) {
  // While |x| stays inside the 53-bit window of its own ulp, every +1.0 is
  // exact, so a whole run of steps collapses into one exact bulk add. Only
  // the step that crosses a power-of-two boundary can round; execute those
  // singly so the hardware applies the exact same rounding the sequential
  // loop would.
  if (!std::isfinite(x)) return x;
  while (k > 0) {
    if (x < 0.0) {
      if (x + 1.0 == x) return x;  // saturated at large negative magnitude
      if (x <= -0x1p53) {
        // ulp ≥ 2: steps round; take them singly (one step either
        // saturates or reaches an even mantissa that saturates next).
        x += 1.0;
        --k;
        continue;
      }
      // Negative values only shrink in magnitude: every step is exact, and
      // steps that keep the value ≤ 0 collapse into a bulk add.
      const double whole = std::floor(-x);
      const uint64_t bulk =
          std::min<uint64_t>(k, static_cast<uint64_t>(whole));
      if (bulk == 0) {
        x += 1.0;
        --k;
      } else {
        x += static_cast<double>(bulk);
        k -= bulk;
      }
      continue;
    }
    if (x + 1.0 == x) return x;  // saturated: no further step changes x
    if (x >= 0x1p53) {
      // ulp ≥ 2: every step rounds; take them singly (a step either
      // saturates or lands on an even mantissa that saturates next).
      x += 1.0;
      --k;
      continue;
    }
    // Largest exact run: stay strictly below the next power of two.
    const double boundary = std::exp2(std::ilogb(std::max(x, 1.0)) + 1);
    const double room = boundary - 1.0 - x;
    const uint64_t bulk = room >= 1.0
                              ? std::min<uint64_t>(k, static_cast<uint64_t>(
                                                          std::floor(room)))
                              : 0;
    if (bulk == 0) {
      x += 1.0;  // boundary-crossing step: correctly rounded by hardware
      --k;
    } else {
      x += static_cast<double>(bulk);
      k -= bulk;
    }
  }
  return x;
}

}  // namespace privbasis
