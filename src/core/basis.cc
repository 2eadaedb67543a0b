#include "core/basis.h"

#include <algorithm>

namespace privbasis {

size_t BasisSet::Length() const {
  size_t len = 0;
  for (const auto& b : bases_) len = std::max(len, b.size());
  return len;
}

std::string BasisSet::ToString() const {
  std::string out = "BasisSet(w=" + std::to_string(Width()) +
                    ", l=" + std::to_string(Length()) + ") [";
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (i > 0) out += ", ";
    out += bases_[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace privbasis
