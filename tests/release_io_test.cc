// The release JSON codec's own edges. The lossless round trip and the
// strict-shape rejections are pinned through the wire layer in wire_test.
#include "eval/release_io.h"

#include <gtest/gtest.h>

namespace privbasis {
namespace {

Result<std::vector<NoisyItemset>> ParseRelease(const std::string& text) {
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value value, json::Parse(text));
  return ReleaseItemsetsFromJson(value);
}

TEST(ReleaseIoTest, EmptyReleaseRoundTrips) {
  auto reread = ParseRelease(ReleaseItemsetsToJson({}).Dump());
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_TRUE(reread->empty());
}

TEST(ReleaseIoTest, RejectsOutOfRangeAndMistypedValues) {
  for (const char* text : {
           R"([{"items": [4294967296], "noisy_count": 1}])",  // > Item max
           R"([{"items": [1.5], "noisy_count": 1}])",
           R"([{"items": [1], "noisy_count": "7"}])",
           R"({"items": [1], "noisy_count": 1})",  // not an array
       }) {
    EXPECT_FALSE(ParseRelease(text).ok()) << text;
  }
  EXPECT_TRUE(ParseRelease(R"([{"items": [4294967295], "noisy_count": 1}])")
                  .ok());
}

}  // namespace
}  // namespace privbasis
