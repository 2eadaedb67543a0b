// Small numeric helpers shared across subsystems: log-binomials for TF's
// candidate-space size |U| ≈ Σ C(|I|, i), summary statistics for the
// experiment harness, and the descending order of integer values that
// the item supports and the exponential mechanism's pools share.
#ifndef PRIVBASIS_COMMON_MATH_UTIL_H_
#define PRIVBASIS_COMMON_MATH_UTIL_H_

#include <cstdint>
#include <span>
#include <vector>

namespace privbasis {

/// log(n!) via lgamma. n ≥ 0.
double LogFactorial(uint64_t n);

/// log C(n, k); −inf when k > n.
double LogChoose(uint64_t n, uint64_t k);

/// log(Σ_{i=1..m} C(n, i)) — the log-size of the TF candidate space U.
double LogCandidateSpaceSize(uint64_t n, uint64_t m);

/// The exact value of `x += 1.0` applied `k` times under IEEE round-to-
/// nearest — in O(number of power-of-two crossings), not O(k). Lets a
/// sharded counter reduce integer counts and still reproduce a sequential
/// floating-point accumulation bit-for-bit.
double AddOnesSequentially(double x, uint64_t k);

/// Indices of `values` by descending value, ties by ascending index: a
/// stable LSD radix sort, O(n) per 11-bit digit the largest value uses.
/// At most 2^32 − 1 values.
std::vector<uint32_t> DescendingOrder(std::span<const uint64_t> values);

/// Arithmetic mean. Empty input returns 0.
double Mean(const std::vector<double>& xs);

/// Median (of a copy; does not reorder the input). Empty input returns 0.
double Median(std::vector<double> xs);

/// Unbiased sample standard deviation; 0 for fewer than two samples.
double SampleStdDev(const std::vector<double>& xs);

/// Standard error of the mean: stddev / sqrt(n); 0 for fewer than two.
double StandardError(const std::vector<double>& xs);

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_MATH_UTIL_H_
