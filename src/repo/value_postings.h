#ifndef TERIDS_REPO_VALUE_POSTINGS_H_
#define TERIDS_REPO_VALUE_POSTINGS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "repo/repository.h"
#include "util/epoch_array.h"

namespace terids {

/// Intersection sizes of one query token set with the values of one
/// attribute domain, as ValuePostings::Count leaves them. Values absent from
/// every posting the query touched share no token with it.
class TokenOverlaps {
 public:
  /// The values at distance below 1.0 from the query, in posting order:
  /// those sharing a token with it or, for an empty query, the values with
  /// an empty token set.
  const std::vector<ValueId>& hits() const { return hits_; }

  /// JaccardDistance(query, tokens of value `v`), bit for bit. `v` must lie
  /// below the domain size the counts were taken at.
  double Distance(ValueId v) const {
    const uint32_t inter = inter_.Get(v);
    const uint32_t size = (*value_sizes_)[v];
    if (query_size_ == 0 && size == 0) {
      return 0.0;  // Two empty sets are identical.
    }
    // JaccardDistance's formula on a known intersection size; a value
    // sharing no token lands at exactly 1.0.
    return 1.0 - static_cast<double>(inter) /
                     static_cast<double>(query_size_ + size - inter);
  }

 private:
  friend class ValuePostings;

  EpochArray<uint32_t> inter_;
  std::vector<ValueId> hits_;
  const std::vector<uint32_t>* value_sizes_ = nullptr;
  uint32_t query_size_ = 0;
};

/// Per-attribute token -> ascending-ValueId postings over the repository's
/// attribute domains (DESIGN.md §5.1).
///
/// A value that shares no token with a query is at Jaccard distance exactly
/// 1.0 (0.0 when both sets are empty), so one pass over the query's postings
/// yields its distance to every domain value: the counted ones by
/// JaccardDistance's formula, the rest at the disjoint constant. The value
/// neighbourhoods build their lists this way, the dynamic-repository absorb
/// widens rules this way, and the engine's imputation checks interval
/// determinants this way.
///
/// Each attribute is indexed on its first Count and follows the domain as
/// it grows: every Count first appends the values added since the last one.
/// Not thread-safe: counting may extend the postings.
class ValuePostings {
 public:
  explicit ValuePostings(const Repository* repo);

  const Repository* repo() const { return repo_; }

  /// Intersections of `tokens` with every value of dom(`attr`) at its
  /// current size, into `out` (which keeps its buffers across calls).
  void Count(int attr, const TokenSet& tokens, TokenOverlaps* out);

 private:
  struct AttrPostings {
    /// Domain values indexed so far: [0, size).
    size_t size = 0;
    std::unordered_map<Token, std::vector<ValueId>> lists;
    /// Values with an empty token set, ascending.
    std::vector<ValueId> empty_values;
    /// Token-set size per ValueId.
    std::vector<uint32_t> value_sizes;
  };

  /// Appends the domain values added since the last call.
  void Sync(int attr);

  const Repository* repo_;
  std::vector<AttrPostings> attrs_;
};

}  // namespace terids

#endif  // TERIDS_REPO_VALUE_POSTINGS_H_
