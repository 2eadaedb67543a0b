// The error-variance model of §4.2: with bin noise Lap(w/(εN)) per basis,
// the noisy frequency of X recovered from basis Bi sums 2^{|Bi|−|X|} bins,
// giving EV[nf_i(X)] = 2^{|Bi|−|X|+1} · w²/(ε²N²)          (Equation 4).
//
// Estimates of X from several covering bases are fused by inverse-variance
// weighting, yielding v1·v2/(v1+v2). Algorithm 2's greedy merge minimizes
// the *average-case* EV over the query set Q = F ∪ P.
//
// EV is kept in "variance units": EV / (2/(ε²N²)), i.e. the unit
// nv = 2^{|Bi|−|X|} of Algorithm 1 scaled by w². ε and N are constants
// within one construction, so unit-free comparison is exact.
#ifndef PRIVBASIS_CORE_ERROR_VARIANCE_H_
#define PRIVBASIS_CORE_ERROR_VARIANCE_H_

#include <cstddef>

namespace privbasis {

/// nv of Algorithm 1: 2^{basis_len − subset_len}, the number of bins
/// summed when recovering a subset of that length. Requires
/// subset_len ≤ basis_len < 64.
double VarianceUnits(size_t basis_len, size_t subset_len);

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_ERROR_VARIANCE_H_
