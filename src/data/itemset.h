// Itemset: an immutable-by-convention sorted set of item ids, the value
// type flowing through the whole library (transactions, mined patterns,
// bases, candidates).
#ifndef PRIVBASIS_DATA_ITEMSET_H_
#define PRIVBASIS_DATA_ITEMSET_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace privbasis {

/// Dense item identifier. Datasets remap raw ids to [0, |I|).
using Item = uint32_t;

/// A set of items stored as a sorted, duplicate-free array. Small (top-k
/// itemsets rarely exceed a dozen items, most hold one to three), so the
/// array is contiguous and, up to kInlineItems, lives inside the object
/// itself: a 24-byte value with no heap allocation. Longer sets keep one
/// exactly-sized heap array.
class Itemset {
 public:
  /// Items held without a heap allocation.
  static constexpr size_t kInlineItems = 4;

  Itemset() = default;

  /// Builds from arbitrary items; sorts and deduplicates.
  explicit Itemset(std::vector<Item> items);
  Itemset(std::initializer_list<Item> items);

  /// Copies items the caller guarantees are sorted and duplicate-free
  /// (checked in debug builds).
  static Itemset FromSorted(std::span<const Item> sorted_items);

  Itemset(const Itemset& other);
  Itemset(Itemset&& other) noexcept;
  Itemset& operator=(const Itemset& other);
  Itemset& operator=(Itemset&& other) noexcept;
  ~Itemset() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Item operator[](size_t i) const { return data()[i]; }

  const Item* begin() const { return data(); }
  const Item* end() const { return data() + size_; }
  std::span<const Item> items() const { return {data(), size_}; }

  /// Membership test. O(log n).
  bool Contains(Item item) const;

  /// True iff every item of *this is in `other`. O(n + m).
  bool IsSubsetOf(const Itemset& other) const;
  bool IsSubsetOf(std::span<const Item> sorted_other) const;

  /// Set union / difference (linear merges).
  Itemset Union(const Itemset& other) const;
  Itemset Difference(const Itemset& other) const;

  /// Copy with `item` added (no-op copy if already present).
  Itemset With(Item item) const;

  /// Lexicographic comparison on the sorted item sequence.
  std::strong_ordering operator<=>(const Itemset& other) const;
  bool operator==(const Itemset& other) const;

  /// "{3, 17, 42}".
  std::string ToString() const;

 private:
  const Item* data() const { return size_ <= kInlineItems ? inline_ : heap_; }
  /// Sets the size to `n` and returns the storage to fill; the object
  /// must hold no heap array.
  Item* Allocate(size_t n);
  /// Moves `other`'s items (or its heap array) here and empties it; this
  /// object must hold no heap array.
  void TakeFrom(Itemset& other) noexcept;
  void Release();

  uint32_t size_ = 0;
  union {
    Item inline_[kInlineItems] = {};
    Item* heap_;
  };
};

static_assert(sizeof(Itemset) == 24);

/// FNV-1a over the item sequence; usable as the Hash template argument of
/// unordered containers keyed by Itemset.
struct ItemsetHash {
  size_t operator()(const Itemset& s) const;
};

/// Hash for plain sorted item vectors (used by interning maps).
struct ItemVectorHash {
  size_t operator()(const std::vector<Item>& v) const;
};

/// Enumerates all non-empty subsets of `base` of size at most `max_size`
/// (0 = no cap), invoking `fn(const Itemset&)` for each. `base.size()` must
/// be ≤ 63.
void ForEachSubset(const Itemset& base, size_t max_size,
                   const std::function<void(const Itemset&)>& fn);

}  // namespace privbasis

#endif  // PRIVBASIS_DATA_ITEMSET_H_
