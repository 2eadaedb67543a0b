#include "core/amplified.h"

#include <memory>
#include <utility>

#include "core/batch_exec.h"
#include "dp/amplification.h"

namespace privbasis {

namespace detail {

Result<PrivBasisResult> RunPrivBasisSubsampledImpl(
    const TransactionDatabase& db, size_t k, double epsilon, Rng& rng,
    const AmplifiedOptions& options, PrivacyAccountant& accountant) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  const double q = options.sampling_rate;
  PRIVBASIS_ASSIGN_OR_RETURN(TransactionDatabase drawn,
                             PoissonSubsample(db, q, rng));
  if (drawn.NumTransactions() == 0) {
    return Status::FailedPrecondition(
        "subsample is empty; raise sampling_rate or dataset size");
  }
  const auto sample =
      std::make_shared<const TransactionDatabase>(std::move(drawn));
  const double mechanism_epsilon = MechanismEpsilonForTarget(q, epsilon);
  PrivBasisOptions base = options.base;
  // The fk1 hint and any inherited executor would read the full
  // dataset. The subsample mines its own margin and counts through its
  // own scan-only executor (an index would cost a pass per query).
  base.fk1_support_hint = 0;
  const DirectCountExecutor exec(sample);
  base.exec = &exec;
  // The subsample run spends against its own mechanism-budget ledger;
  // only the amplified end-to-end ε is charged to the caller's.
  PrivacyAccountant mechanism_accountant(mechanism_epsilon);
  PRIVBASIS_ASSIGN_OR_RETURN(
      PrivBasisResult result,
      RunPrivBasisImpl(*sample, k, mechanism_epsilon, rng, base,
                       mechanism_accountant));
  // Rescale counts from the subsample to the full dataset.
  for (auto& itemset : result.topk) {
    itemset.noisy_count /= q;
  }
  // Charge (and report) the end-to-end guarantee, not the per-run
  // mechanism budget — read back from the ledger, not recomputed.
  const double amplified =
      AmplifiedEpsilon(q, mechanism_accountant.spent_epsilon());
  PRIVBASIS_RETURN_NOT_OK(accountant.Consume(
      amplified, "PrivBasis(subsampled q=" + std::to_string(q) + ")"));
  result.epsilon_spent = accountant.spent_epsilon();
  return result;
}

}  // namespace detail

}  // namespace privbasis
