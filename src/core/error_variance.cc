#include "core/error_variance.h"

#include <cassert>
#include <cstdint>

namespace privbasis {

double VarianceUnits(size_t basis_len, size_t subset_len) {
  assert(subset_len <= basis_len && basis_len < 64);
  return static_cast<double>(uint64_t{1} << (basis_len - subset_len));
}

}  // namespace privbasis
