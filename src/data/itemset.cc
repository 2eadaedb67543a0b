#include "data/itemset.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace privbasis {

Itemset::Itemset(std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  std::copy(items.begin(), items.end(), Allocate(items.size()));
}

Itemset::Itemset(std::initializer_list<Item> items)
    : Itemset(std::vector<Item>(items)) {}

Itemset Itemset::FromSorted(std::span<const Item> sorted_items) {
  assert(std::is_sorted(sorted_items.begin(), sorted_items.end()));
  assert(std::adjacent_find(sorted_items.begin(), sorted_items.end()) ==
         sorted_items.end());
  Itemset s;
  std::copy(sorted_items.begin(), sorted_items.end(),
            s.Allocate(sorted_items.size()));
  return s;
}

Itemset::Itemset(const Itemset& other) {
  std::copy(other.begin(), other.end(), Allocate(other.size_));
}

Itemset::Itemset(Itemset&& other) noexcept { TakeFrom(other); }

Itemset& Itemset::operator=(const Itemset& other) {
  if (this != &other) *this = Itemset(other);
  return *this;
}

Itemset& Itemset::operator=(Itemset&& other) noexcept {
  if (this != &other) {
    Release();
    TakeFrom(other);
  }
  return *this;
}

Item* Itemset::Allocate(size_t n) {
  assert(size_ <= kInlineItems && n <= UINT32_MAX);
  size_ = static_cast<uint32_t>(n);
  if (n <= kInlineItems) return inline_;
  heap_ = new Item[n];
  return heap_;
}

void Itemset::TakeFrom(Itemset& other) noexcept {
  size_ = other.size_;
  if (size_ <= kInlineItems) {
    std::copy_n(other.inline_, size_, inline_);
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
}

void Itemset::Release() {
  if (size_ > kInlineItems) delete[] heap_;
  size_ = 0;
}

bool Itemset::Contains(Item item) const {
  return std::binary_search(begin(), end(), item);
}

bool Itemset::IsSubsetOf(const Itemset& other) const {
  return IsSubsetOf(other.items());
}

bool Itemset::IsSubsetOf(std::span<const Item> sorted_other) const {
  return std::includes(sorted_other.begin(), sorted_other.end(), begin(),
                       end());
}

Itemset Itemset::Union(const Itemset& other) const {
  std::vector<Item> out;
  out.reserve(size_ + other.size_);
  std::set_union(begin(), end(), other.begin(), other.end(),
                 std::back_inserter(out));
  return FromSorted(out);
}

Itemset Itemset::Difference(const Itemset& other) const {
  std::vector<Item> out;
  std::set_difference(begin(), end(), other.begin(), other.end(),
                      std::back_inserter(out));
  return FromSorted(out);
}

Itemset Itemset::With(Item item) const {
  if (Contains(item)) return *this;
  Itemset out;
  Item* dst = out.Allocate(size_ + 1);
  const Item* pos = std::lower_bound(begin(), end(), item);
  dst = std::copy(begin(), pos, dst);
  *dst++ = item;
  std::copy(pos, end(), dst);
  return out;
}

std::strong_ordering Itemset::operator<=>(const Itemset& other) const {
  return std::lexicographical_compare_three_way(begin(), end(), other.begin(),
                                                other.end());
}

bool Itemset::operator==(const Itemset& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

std::string Itemset::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string((*this)[i]);
  }
  out += "}";
  return out;
}

namespace {
inline size_t Fnv1a(const Item* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}
}  // namespace

size_t ItemsetHash::operator()(const Itemset& s) const {
  return Fnv1a(s.items().data(), s.size());
}

size_t ItemVectorHash::operator()(const std::vector<Item>& v) const {
  return Fnv1a(v.data(), v.size());
}

void ForEachSubset(const Itemset& base, size_t max_size,
                   const std::function<void(const Itemset&)>& fn) {
  assert(base.size() <= 63);
  const size_t n = base.size();
  const uint64_t limit = uint64_t{1} << n;
  std::vector<Item> scratch;
  scratch.reserve(n);
  for (uint64_t mask = 1; mask < limit; ++mask) {
    if (max_size != 0 &&
        static_cast<size_t>(__builtin_popcountll(mask)) > max_size) {
      continue;
    }
    scratch.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) scratch.push_back(base[i]);
    }
    fn(Itemset::FromSorted(scratch));
  }
}

}  // namespace privbasis
