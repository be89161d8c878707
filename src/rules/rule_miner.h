#ifndef TERIDS_RULES_RULE_MINER_H_
#define TERIDS_RULES_RULE_MINER_H_

#include <cstdint>
#include <vector>

#include "repo/repository.h"
#include "repo/value_postings.h"
#include "rules/rule.h"

namespace terids {

/// Options controlling rule detection from the repository (Section 2.2
/// "CDD Rule Detection"; details deferred by the paper to [19,41,35,12]).
struct MinerOptions {
  /// Number of sample pairs drawn from R to estimate differential
  /// dependencies. Capped at the number of distinct pairs in R.
  int pair_samples = 20000;
  /// Number of equi-width buckets the determinant distance axis [0,1] is
  /// split into for interval constraints.
  int buckets = 10;
  /// A bucket produces a rule only if its dependent interval is at most this
  /// wide; wider means the determinant cannot "accurately impute A_j with an
  /// acceptable interval" and the miner falls back to constants.
  double max_dep_width = 0.45;
  /// The classic-DD acceptance width [35]: DDs tolerate much looser
  /// dependent intervals (no conditioning), which is why DD-based
  /// imputation retrieves more samples and more candidate values than CDDs
  /// (slower and less accurate, Section 6.3).
  double dd_max_dep_width = 0.9;
  /// A rule is only useful for imputation if candidate values stay close to
  /// the sample value; dependent intervals whose hi exceeds this carry no
  /// signal (candidates would be "anything far away") and are rejected.
  double max_dep_hi = 1.0;
  /// The DD analogue (looser, matching the DD acceptance philosophy).
  double dd_max_dep_hi = 0.95;
  /// Editing rules assert near-certain fixes: a constant is accepted if at
  /// least `editing_agreement` of its pairs agree on the dependent within
  /// distance `editing_tolerance`.
  double editing_agreement = 0.8;
  double editing_tolerance = 0.2;
  /// Minimum number of supporting pairs for any emitted rule.
  int min_support = 4;
  /// Upper quantile of the dependent-distance sample used as the interval's
  /// hi endpoint (robustness against outlier pairs).
  double dep_quantile = 0.95;
  /// How many determinant buckets (lowest distances first) to turn into
  /// rules per (determinant, dependent) attribute pair. Real corpora yield
  /// thousands of CDDs (2,500 on 600-tuple Cora, Section 2.3); the default
  /// deliberately produces a large rule set so that unindexed rule
  /// processing exhibits the cost the paper's CDD-index addresses.
  int max_buckets_per_pair = 8;
  /// Constants mined per determinant attribute (editing-rule fallback).
  int max_constants_per_attr = 24;
  /// Minimum frequency in R for a value to be considered a constant.
  int min_const_freq = 3;
  /// Whether constant (editing-rule-style) constraints are mined at all.
  bool mine_constants = true;
  /// Whether level-2 combined rules X_a X_b -> A_j are mined.
  bool combine_level2 = true;
  /// Maximum level-2 combinations emitted per dependent attribute.
  int max_level2_rules = 160;
  uint64_t seed = 42;
};

/// Mines CDD, DD, and editing rules from a data repository.
///
/// CDDs: per dependent attribute A_j, differential buckets on each
/// determinant A_x yield interval constraints with tight dependent
/// intervals; determinants that impute loosely fall back to constant
/// constraints; level-2 combinations refine the dependent interval.
/// DDs: same pipeline restricted to [0, hi] interval constraints with no
/// constants and no level-2 refinement (the looser classic form [35]).
/// Editing rules: constant-only rules with exact-copy dependent interval.
class RuleMiner {
 public:
  RuleMiner(const Repository* repo, MinerOptions options);

  std::vector<CddRule> MineCdds() const;
  std::vector<CddRule> MineDds() const;
  std::vector<CddRule> MineEditingRules() const;

  /// Dynamic repository maintenance (Section 5.5): checks `sample_idx`
  /// (already added to the repository) against `rules`; any rule whose
  /// determinants some (rule-satisfying) pair involving the new sample
  /// meets, but whose dependent constraint that pair violates, gets its
  /// dependent interval widened to cover the pair. Returns the number of
  /// rules widened.
  ///
  /// Distances to the new sample are counted once per attribute through
  /// `postings` (over this miner's repository), so each (rule, sample)
  /// check is a ValueId lookup; a rule whose constant the new sample does
  /// not carry is skipped without a scan.
  int AbsorbNewSample(size_t sample_idx, ValuePostings* postings,
                      std::vector<CddRule>* rules) const;

 private:
  struct PairSample {
    size_t a;
    size_t b;
    std::vector<double> dists;  // per-attribute Jaccard distance.
  };

  std::vector<PairSample> DrawPairs() const;

  std::vector<CddRule> MineWithMode(bool dd_mode) const;

  const Repository* repo_;
  MinerOptions options_;
};

}  // namespace terids

#endif  // TERIDS_RULES_RULE_MINER_H_
