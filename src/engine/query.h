// QuerySpec / Release: the request and response types of the Engine
// facade (engine/engine.h).
//
// A QuerySpec describes one private release end to end — method (PrivBasis
// or the TF baseline), top-k vs threshold mode, subsampling amplification,
// association-rule derivation, seed, and the advanced per-method options —
// and is validated in ONE place (Validate()), so every entry point (CLI,
// examples, experiment harness, tests) shares the same checks. A Release
// is the unified answer: the released itemsets (ready for
// eval/release_io), optional rules, and budget diagnostics read back from
// the dataset's Accountant ledger.
#ifndef PRIVBASIS_ENGINE_QUERY_H_
#define PRIVBASIS_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/tf.h"
#include "common/status.h"
#include "core/association_rules.h"
#include "core/basis.h"
#include "core/privbasis.h"

namespace privbasis {

/// Which private release mechanism serves the query.
enum class QueryMethod {
  kPrivBasis,           ///< the paper's Algorithm 3 (default)
  kTruncatedFrequency,  ///< the Bhaskar et al. KDD'10 baseline
};

/// Returns "pb" / "tf" — the CLI spelling and the default ledger label.
const char* QueryMethodName(QueryMethod method);

/// One query against a Dataset. Builder-style: every setter returns *this
/// so specs read as one chained expression:
///
///   QuerySpec().WithTopK(100).WithEpsilon(0.5).WithSeed(7)
///   QuerySpec().WithThreshold(0.02, /*k_cap=*/400).WithRules(0.6)
///   QuerySpec().WithMethod(QueryMethod::kTruncatedFrequency).WithTopK(50)
struct QuerySpec {
  QueryMethod method = QueryMethod::kPrivBasis;
  /// Top-k to release; in threshold mode, the candidate cap (the paper's
  /// k in the threshold → top-k reduction).
  size_t k = 100;
  /// Total privacy budget of this query (reserved from the dataset's
  /// Accountant; the committed spend never exceeds it).
  double epsilon = 1.0;
  /// Seed for the query's RNG stream (ignored by the Run overload that
  /// takes an external Rng).
  uint64_t seed = 42;
  /// > 0: threshold mode — keep only released itemsets whose noisy
  /// frequency clears theta (PrivBasis only; pure post-processing).
  double theta = 0.0;
  /// < 1: run on a Poisson subsample at this rate with the
  /// amplification-adjusted mechanism budget (PrivBasis only).
  double sampling_rate = 1.0;
  /// true: derive association rules from the release (post-processing,
  /// no extra budget). Thresholds in `rule_options`.
  bool derive_rules = false;
  RuleOptions rule_options;
  /// Advanced per-method tunables.
  PrivBasisOptions pb;
  TfOptions tf;
  /// Ledger label; empty = QueryMethodName(method).
  std::string label;
  /// Cooperative cancellation (common/cancel.h). In-process only — never
  /// serialized over the wire; the server arms one per request from the
  /// client's deadline_ms. The Engine checks it before reserving budget
  /// (a pre-lease refusal charges nothing) and threads it into every
  /// mechanism scan; a token firing after the reservation charges the
  /// FULL reservation via the aborted-lease path, because noise may
  /// already have been observed. The token must outlive the Run call.
  const CancelToken* cancel = nullptr;

  QuerySpec& WithMethod(QueryMethod m) {
    method = m;
    return *this;
  }
  QuerySpec& WithTopK(size_t top_k) {
    k = top_k;
    theta = 0.0;
    return *this;
  }
  QuerySpec& WithEpsilon(double eps) {
    epsilon = eps;
    return *this;
  }
  QuerySpec& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }
  QuerySpec& WithThreshold(double t, size_t k_cap) {
    theta = t;
    k = k_cap;
    return *this;
  }
  QuerySpec& WithAmplification(double q) {
    sampling_rate = q;
    return *this;
  }
  QuerySpec& WithRules(double min_confidence) {
    derive_rules = true;
    rule_options.min_confidence = min_confidence;
    return *this;
  }

  /// The label this query's spend is committed under.
  std::string LedgerLabel() const;

  /// Central option validation (satisfying every check the scattered
  /// entry points used to do ad hoc): k ≥ 1, ε > 0 and finite, PrivBasis
  /// α1+α2+α3 ≤ 1 with positive parts, η ≥ 1, θ ∈ [0, 1] (0 = no
  /// filter), sampling rate ∈ (0, 1], TF m ≥ 1, rule confidence
  /// ∈ (0, 1]. Returns kInvalidArgument with a usage-quality message on
  /// the first failure.
  Status Validate() const;
};

/// The unified answer to one Engine::Run call.
struct Release {
  QueryMethod method = QueryMethod::kPrivBasis;
  /// Released itemsets with noisy counts, best first — the format
  /// eval/release_io serializes and eval/metrics scores.
  std::vector<NoisyItemset> itemsets;
  /// Derived rules (empty unless the spec asked for them).
  std::vector<AssociationRule> rules;

  // Diagnostics (all derived from DP-released values — safe to expose):
  uint32_t lambda = 0;   ///< PrivBasis: sampled λ
  uint32_t lambda2 = 0;  ///< PrivBasis: pair-selection count
  BasisSet basis_set;    ///< PrivBasis: the basis set used

  /// Budget accounting, read back from the dataset's Accountant ledger.
  double epsilon_requested = 0.0;  ///< the reservation (spec.epsilon)
  double epsilon_spent = 0.0;      ///< committed by THIS query
  double epsilon_spent_total = 0.0;  ///< dataset cumulative after commit
  double epsilon_remaining = 0.0;    ///< dataset budget left
};

}  // namespace privbasis

#endif  // PRIVBASIS_ENGINE_QUERY_H_
