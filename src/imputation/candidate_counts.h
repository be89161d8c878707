#ifndef TERIDS_IMPUTATION_CANDIDATE_COUNTS_H_
#define TERIDS_IMPUTATION_CANDIDATE_COUNTS_H_

#include <cstdint>
#include <vector>

#include "repo/attribute_domain.h"
#include "tuple/imputed_tuple.h"
#include "util/epoch_array.h"

namespace terids {

/// The frequency distribution of Equation (4) for one (record, missing
/// attribute) imputation: how many (rule, satisfying sample) combinations
/// put each value of dom(A_j) into their candidate set cand(s[A_j]).
///
/// Counts live in a dense per-ValueId EpochArray (the id -> dense-array idiom
/// of interned vocabularies), so Reset() is O(1), and a touched list bounds
/// Finalize() by the values actually counted. A count is `base + own(v)`:
/// AddAll() raises every value of the domain by one through `base`, and the
/// caller Remove()s the exceptions. That is how the implicit distance-1.0
/// tail of a value neighbourhood is accumulated without walking it
/// (imputation/value_neighborhoods.h).
///
/// Counts are whole numbers, so the total and every probability are exact
/// regardless of accumulation order: indexed and linear imputation produce
/// identical candidate lists. One instance is owned by each imputing engine
/// and used from its (serial) ingest stage only.
class CandidateCounts {
 public:
  /// Starts an empty distribution over a domain of `domain_size` values.
  void Reset(size_t domain_size);

  /// +1 for value `v`.
  void Add(ValueId v) { Bump(v, 1); }
  /// -1 for value `v`; only valid for a value that an earlier Add() or
  /// AddAll() raised.
  void Remove(ValueId v) { Bump(v, -1); }
  /// +1 for every value of the domain (the caller then Remove()s the
  /// exceptions).
  void AddAll() { ++base_; }

  /// Normalized candidate list of Equation (4): probability descending,
  /// ValueId ascending, capped at `max_candidates` and renormalized over the
  /// retained set. Empty if nothing was counted.
  std::vector<ImputedTuple::Candidate> Finalize(int max_candidates) const;

 private:
  void Bump(ValueId v, int64_t delta) {
    if (!own_.IsSet(v)) {
      touched_.push_back(v);
    }
    own_.Slot(v) += delta;
  }

  size_t domain_size_ = 0;
  int64_t base_ = 0;
  EpochArray<int64_t> own_;
  std::vector<ValueId> touched_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_CANDIDATE_COUNTS_H_
