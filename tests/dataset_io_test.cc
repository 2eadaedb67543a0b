#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace privbasis {
namespace {

/// Parses `text` through the file reader.
Result<LoadedDataset> ReadFimiText(const std::string& text) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "privbasis_io_test.dat")
          .string();
  std::ofstream(path) << text;
  auto result = ReadFimiFile(path);
  std::remove(path.c_str());
  return result;
}

TEST(DatasetIoTest, ParsesSimpleFimi) {
  auto result = ReadFimiText("1 2 3\n2 3\n3\n");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& db = result->db;
  EXPECT_EQ(db.NumTransactions(), 3u);
  EXPECT_EQ(db.UniverseSize(), 3u);
  // Raw ids 1,2,3 remapped to dense 0,1,2 in first-appearance order.
  EXPECT_EQ(result->dense_to_raw, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(DatasetIoTest, RemapsInFirstAppearanceOrder) {
  auto result = ReadFimiText("100 7\n7 9\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dense_to_raw, (std::vector<uint64_t>{100, 7, 9}));
  EXPECT_EQ(result->db.Transaction(0)[0], 0u);  // 100 -> 0
  EXPECT_EQ(result->db.Transaction(1)[0], 1u);  // 7 -> 1
}

TEST(DatasetIoTest, SkipsBlankLines) {
  auto result = ReadFimiText("1 2\n\n   \n3\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.NumTransactions(), 2u);
}

TEST(DatasetIoTest, HandlesExtraWhitespace) {
  auto result = ReadFimiText("  1   2 \t 3\r\n4\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.NumTransactions(), 2u);
  EXPECT_EQ(result->db.Transaction(0).size(), 3u);
}

TEST(DatasetIoTest, RejectsMalformedToken) {
  auto result = ReadFimiText("1 banana 3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(DatasetIoTest, DuplicateItemsInLineDeduped) {
  auto result = ReadFimiText("5 5 5\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.Transaction(0).size(), 1u);
}

TEST(DatasetIoTest, MissingFileFails) {
  auto result = ReadFimiFile("/nonexistent/path/to/data.dat");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(DatasetIoTest, EmptyInput) {
  auto result = ReadFimiText("");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.NumTransactions(), 0u);
}

}  // namespace
}  // namespace privbasis
