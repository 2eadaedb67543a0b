// End-to-end behaviour of the full pipeline on scaled-down paper
// profiles, driven through the Engine facade: the directional claims the
// evaluation section rests on.
#include <gtest/gtest.h>

#include "baseline/gamma.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "eval/experiment.h"

namespace privbasis {
namespace {

std::shared_ptr<Dataset> MakeProfileDataset(const SyntheticProfile& profile,
                                            uint64_t seed) {
  auto dataset = Dataset::FromProfile(profile, seed);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return dataset.ok() ? *dataset : nullptr;
}

TEST(IntegrationTest, MushroomPbNearZeroFnrAtModerateEpsilon) {
  // Paper Figure 1: PB FNR ≈ 0 for ε ≥ 0.5 on mushroom.
  auto dataset = MakeProfileDataset(SyntheticProfile::Mushroom(0.5), 101);
  ASSERT_NE(dataset, nullptr);
  auto truth = dataset->Truth(50);
  ASSERT_TRUE(truth.ok());
  SweepConfig config;
  config.epsilons = {1.0};
  config.repeats = 3;
  auto series = RunEpsilonSweep(
      "pb", EngineMethod(dataset, QuerySpec().WithTopK(50)), **truth, config);
  ASSERT_TRUE(series.ok());
  EXPECT_LE(series->points[0].fnr_mean, 0.1);
  EXPECT_LE(series->points[0].re_mean, 0.1);
}

TEST(IntegrationTest, PbBeatsTfOnDenseDataAtLargerK) {
  // The paper's headline: on dense data with k large enough that TF's
  // truncation degenerates, PB's FNR is far lower than TF's.
  auto dataset = MakeProfileDataset(SyntheticProfile::Mushroom(0.5), 103);
  ASSERT_NE(dataset, nullptr);
  const size_t k = 60;
  auto truth = dataset->Truth(k);
  ASSERT_TRUE(truth.ok());
  SweepConfig config;
  config.epsilons = {1.0};
  config.repeats = 3;

  auto pb = RunEpsilonSweep(
      "pb", EngineMethod(dataset, QuerySpec().WithTopK(k)), **truth, config);
  ASSERT_TRUE(pb.ok());

  QuerySpec tf_spec;
  tf_spec.WithMethod(QueryMethod::kTruncatedFrequency).WithTopK(k);
  tf_spec.tf.m = 2;
  auto tf_series =
      RunEpsilonSweep("tf", EngineMethod(dataset, tf_spec), **truth, config);
  ASSERT_TRUE(tf_series.ok());

  EXPECT_LT(pb->points[0].fnr_mean, tf_series->points[0].fnr_mean)
      << "PB FNR " << pb->points[0].fnr_mean << " vs TF "
      << tf_series->points[0].fnr_mean;
  EXPECT_GT(tf_series->points[0].fnr_mean, 0.3)
      << "TF should be badly degraded in this regime";
}

TEST(IntegrationTest, FnrImprovesWithEpsilon) {
  // Loose monotonicity: FNR at ε=2.0 must beat FNR at ε=0.05 clearly.
  auto dataset = MakeProfileDataset(SyntheticProfile::Mushroom(0.3), 107);
  ASSERT_NE(dataset, nullptr);
  const size_t k = 40;
  auto truth = dataset->Truth(k);
  ASSERT_TRUE(truth.ok());
  SweepConfig config;
  config.epsilons = {0.05, 2.0};
  config.repeats = 3;
  auto series = RunEpsilonSweep(
      "pb", EngineMethod(dataset, QuerySpec().WithTopK(k)), **truth, config);
  ASSERT_TRUE(series.ok());
  EXPECT_GT(series->points[0].fnr_mean, series->points[1].fnr_mean);
}

TEST(IntegrationTest, MultiBasisPathOnSparseProfile) {
  // A scaled-down kosarak: λ > 12 forces the multi-basis machinery
  // (pairs, cliques, merging) end to end.
  auto dataset = MakeProfileDataset(SyntheticProfile::Kosarak(0.02), 109);
  ASSERT_NE(dataset, nullptr);
  const size_t k = 60;
  PrivBasisOptions options;
  auto release = Engine::Run(
      *dataset, QuerySpec().WithTopK(k).WithEpsilon(1.0).WithSeed(111));
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_GT(release->lambda, 12u);
  EXPECT_GT(release->basis_set.Width(), 1u);
  EXPECT_LE(release->basis_set.Length(), options.max_basis_length);
  EXPECT_EQ(release->itemsets.size(), k);
  EXPECT_LE(release->epsilon_spent, 1.0 + 1e-9);
  // Ledger agreement: the release's diagnostics ARE the ledger's numbers.
  EXPECT_NEAR(release->epsilon_spent,
              dataset->accountant()->spent_epsilon(), 1e-12);
}

TEST(IntegrationTest, TfDegenerateRegimeMatchesTable2b) {
  // At paper scale kosarak+m=2+k=200 is degenerate for ε ≤ 1; the scaled
  // dataset keeps N smaller so γ (∝ 1/N) is even larger — still
  // degenerate.
  auto dataset = MakeProfileDataset(SyntheticProfile::Kosarak(0.02), 113);
  ASSERT_NE(dataset, nullptr);
  TfOptions options;
  options.m = 2;
  auto runner = dataset->Tf(100, options);
  ASSERT_TRUE(runner.ok());
  const TransactionDatabase& db = dataset->db();
  EXPECT_TRUE(ComputeTfEffectiveness(db.UniverseSize(), db.NumTransactions(),
                                     (*runner)->fk_count(), 100, options.m,
                                     1.0, options.rho)
                  .degenerate);
}

TEST(IntegrationTest, EveryMechanismRoutesThroughAccountant) {
  // Audit: PB and TF queries on one dataset share its ledger; the budget
  // refuses the query that would overdraw it.
  auto db = GenerateDataset(SyntheticProfile::Mushroom(0.1), 115);
  ASSERT_TRUE(db.ok());
  auto dataset =
      Dataset::Create(std::move(db).value(), {.total_epsilon = 1.0});

  QuerySpec tf_spec;
  tf_spec.WithMethod(QueryMethod::kTruncatedFrequency).WithTopK(10);
  tf_spec.tf.m = 1;
  ASSERT_TRUE(
      Engine::Run(*dataset, QuerySpec(tf_spec).WithEpsilon(0.5).WithSeed(1))
          .ok());
  ASSERT_TRUE(
      Engine::Run(*dataset, QuerySpec(tf_spec).WithEpsilon(0.5).WithSeed(2))
          .ok());
  auto over =
      Engine::Run(*dataset, QuerySpec(tf_spec).WithEpsilon(0.1).WithSeed(3));
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_NEAR(dataset->accountant()->spent_epsilon(), 1.0, 1e-9);
}

}  // namespace
}  // namespace privbasis
