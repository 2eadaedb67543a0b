#include "data/transaction_db.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;

TEST(TransactionDbTest, BuilderBasics) {
  TransactionDatabase db = MakeDb({{0, 1}, {1, 2}, {2}});
  EXPECT_EQ(db.NumTransactions(), 3u);
  EXPECT_EQ(db.UniverseSize(), 3u);
  EXPECT_EQ(db.TotalItemOccurrences(), 5u);
}

TEST(TransactionDbTest, TransactionsSortedAndDeduped) {
  TransactionDatabase db = MakeDb({{3, 1, 2, 1, 3}});
  auto txn = db.Transaction(0);
  ASSERT_EQ(txn.size(), 3u);
  EXPECT_EQ(txn[0], 1u);
  EXPECT_EQ(txn[1], 2u);
  EXPECT_EQ(txn[2], 3u);
}

TEST(TransactionDbTest, EmptyTransactionsCountTowardN) {
  TransactionDatabase db = MakeDb({{}, {0}, {}});
  EXPECT_EQ(db.NumTransactions(), 3u);
  EXPECT_EQ(db.Transaction(0).size(), 0u);
}

TEST(TransactionDbTest, DeclaredUniverseEnforced) {
  TransactionDatabase::Builder builder(3);
  builder.AddTransaction(std::vector<Item>{0, 5});
  auto result = std::move(builder).Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransactionDbTest, DeclaredUniverseLargerThanItems) {
  TransactionDatabase db = MakeDb({{0, 1}}, /*universe=*/10);
  EXPECT_EQ(db.UniverseSize(), 10u);
  EXPECT_EQ(db.ItemSupports().size(), 10u);
  EXPECT_EQ(db.ItemSupports()[9], 0u);
}

TEST(TransactionDbTest, ItemSupports) {
  TransactionDatabase db = MakeDb({{0, 1}, {0, 2}, {0}});
  EXPECT_EQ(db.ItemSupports()[0], 3u);
  EXPECT_EQ(db.ItemSupports()[1], 1u);
  EXPECT_EQ(db.ItemSupports()[2], 1u);
  EXPECT_NEAR(db.ItemFrequency(0), 1.0, 1e-12);
  EXPECT_NEAR(db.ItemFrequency(1), 1.0 / 3.0, 1e-12);
}

TEST(TransactionDbTest, SupportOfItemset) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(db.SupportOf(Itemset({0, 1})), 2u);
  EXPECT_EQ(db.SupportOf(Itemset({0, 1, 2})), 1u);
  EXPECT_EQ(db.SupportOf(Itemset({1})), 3u);
  EXPECT_EQ(db.SupportOf(Itemset()), 4u);  // empty set: all transactions
  EXPECT_NEAR(db.FrequencyOf(Itemset({0, 1})), 0.5, 1e-12);
}

TEST(TransactionDbTest, ItemsetAddTransactionOverload) {
  TransactionDatabase::Builder builder;
  builder.AddTransaction(Itemset({4, 2}));
  auto db = std::move(builder).Build();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Transaction(0)[0], 2u);
  EXPECT_EQ(db->Transaction(0)[1], 4u);
}

TEST(TransactionDbTest, EmptyDatabase) {
  TransactionDatabase::Builder builder;
  auto db = std::move(builder).Build();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->NumTransactions(), 0u);
  EXPECT_EQ(db->UniverseSize(), 0u);
}

}  // namespace
}  // namespace privbasis
