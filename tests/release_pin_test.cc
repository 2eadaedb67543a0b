// Golden pins for whole Engine::Run releases: the released itemsets and
// the bit patterns of their noisy counts, λ, λ2 and the basis set, for
// fixed (dataset, k, ε, seed). Every stage of a query — GetLambda, the
// item and pair exponential mechanisms, pair counting, basis
// construction and BasisFreq — consumes or shapes the RNG stream, so a
// change to any of them that moves one draw shows up here. The
// expectations were recorded before the pre-construction stages were
// optimized; an optimized query path must reproduce them bit for bit.
//
// Grid: kosarak (scale 0.05), mushroom (scale 1) and retail (scale 0.1)
// × k ∈ {10, 50, 100, 300} × ε ∈ {0.1, 1} × seeds {1, 2, 3}, each run
// twice: scanning the database directly and counting through the
// dataset's DirectCountExecutor (EnsureCountExecutor). Both runs must
// match the same pin, since attaching the executor never changes a bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"

namespace privbasis {
namespace {

/// FNV-1a over every released field that depends on the mechanism.
class Digest {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  void MixDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Mix(bits);
  }
  void MixItemset(const Itemset& itemset) {
    Mix(itemset.size());
    for (Item item : itemset) Mix(item);
  }
  void MixRelease(const Release& release) {
    Mix(release.lambda);
    Mix(release.lambda2);
    Mix(release.basis_set.Width());
    for (const Itemset& basis : release.basis_set.bases()) MixItemset(basis);
    Mix(release.itemsets.size());
    for (const NoisyItemset& itemset : release.itemsets) {
      MixItemset(itemset.items);
      MixDouble(itemset.noisy_count);
    }
    MixDouble(release.epsilon_spent);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr uint64_t kSeeds[] = {1, 2, 3};

struct Pin {
  size_t k;
  double epsilon;
  uint64_t digest;  ///< over the releases of every seed in kSeeds, in order
};

std::shared_ptr<Dataset> MakeDataset(const SyntheticProfile& profile,
                                     bool with_executor) {
  auto dataset = Dataset::FromProfile(profile, 42);
  if (!dataset.ok()) return nullptr;
  if (with_executor) (void)(*dataset)->EnsureCountExecutor();
  return *dataset;
}

void ExpectPins(const std::string& name, const SyntheticProfile& profile,
                const std::vector<Pin>& pins) {
  for (bool with_executor : {false, true}) {
    SCOPED_TRACE(with_executor ? "with executor" : "direct scan");
    auto dataset = MakeDataset(profile, with_executor);
    ASSERT_NE(dataset, nullptr);
    ASSERT_EQ(dataset->count_executor() != nullptr, with_executor);
    std::string table;
    bool all_match = true;
    for (const Pin& pin : pins) {
      Digest digest;
      for (uint64_t seed : kSeeds) {
        auto release = Engine::Run(
            *dataset,
            QuerySpec().WithTopK(pin.k).WithEpsilon(pin.epsilon).WithSeed(
                seed));
        ASSERT_TRUE(release.ok()) << release.status();
        digest.MixRelease(*release);
      }
      char line[96];
      std::snprintf(line, sizeof line, "  {%zu, %g, 0x%016llxULL},\n", pin.k,
                    pin.epsilon,
                    static_cast<unsigned long long>(digest.value()));
      table += line;
      EXPECT_EQ(digest.value(), pin.digest)
          << name << " k=" << pin.k << " eps=" << pin.epsilon;
      all_match = all_match && digest.value() == pin.digest;
    }
    if (!all_match) ADD_FAILURE() << name << " pins as computed:\n" << table;
  }
}

TEST(ReleasePinTest, Kosarak) {
  ExpectPins("kosarak", SyntheticProfile::Kosarak(0.05),
             {
                 {10, 0.1, 0xa3297a7c0ed13cbeULL},
                 {10, 1, 0x8db4eccff8b64328ULL},
                 {50, 0.1, 0x273300d6d00cdee4ULL},
                 {50, 1, 0x926a6b543b2290d4ULL},
                 {100, 0.1, 0xf13f0a5392da351eULL},
                 {100, 1, 0xa9d707b2adbc65caULL},
                 {300, 0.1, 0xb839b8aa9c3f3c43ULL},
                 {300, 1, 0x8c004cd19a1b20dcULL},
             });
}

TEST(ReleasePinTest, Mushroom) {
  ExpectPins("mushroom", SyntheticProfile::Mushroom(1.0),
             {
                 {10, 0.1, 0x3cf4da4edd663c3aULL},
                 {10, 1, 0xb2948a44904d3d95ULL},
                 {50, 0.1, 0x341e7f5654e8abd5ULL},
                 {50, 1, 0x15c54778ffb7aef4ULL},
                 {100, 0.1, 0x4bc1fa60995d21ceULL},
                 {100, 1, 0xf0da07403b4b78d4ULL},
                 {300, 0.1, 0x5659aec72b41dcd6ULL},
                 {300, 1, 0x6ed298b1094419f1ULL},
             });
}

TEST(ReleasePinTest, Retail) {
  ExpectPins("retail", SyntheticProfile::Retail(0.1),
             {
                 {10, 0.1, 0x5ae84deeda9f83d0ULL},
                 {10, 1, 0x6c4fd3b3e381239eULL},
                 {50, 0.1, 0x3990ecd4504a7bb5ULL},
                 {50, 1, 0xec965191b2a3b1b6ULL},
                 {100, 0.1, 0x9b57635a4da540c8ULL},
                 {100, 1, 0xdf2e1daf5fddd472ULL},
                 {300, 0.1, 0x65915f3919829e8eULL},
                 {300, 1, 0x911a1f28480f451fULL},
             });
}

}  // namespace
}  // namespace privbasis
