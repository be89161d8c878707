#ifndef TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
#define TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "imputation/candidate_counts.h"
#include "repo/repository.h"
#include "rules/rule.h"
#include "util/epoch_array.h"

namespace terids {

/// Distance-sorted neighbour lists of attribute-domain values, the
/// value-level companion of the DR-index: for a domain value v of attribute
/// x, Neighborhood(x, v) lists every value within `radius[x]` of v, sorted
/// by (Jaccard distance, ValueId).
///
/// Candidate sets cand(s[A_j]) (Section 3) are binary-searched slices of
/// these lists, so an index-assisted engine computes each domain-to-domain
/// distance at most once per engine lifetime, while the unindexed baselines
/// rescan the domain per (rule, sample, arrival). See DESIGN.md §5.1.
///
/// - **Posting build.** Lists are built lazily, on the first slice a value
///   is asked for. Values that share no token with the centre are at
///   distance exactly 1.0, so a build counts intersections through a
///   per-attribute token -> ascending-ValueId posting list and computes
///   distances only for the values that share a token. The sorted main-pivot
///   coordinate band still filters them, so a list equals the band-filtered
///   scan bit for bit.
/// - **Implicit disjoint tail.** With radius >= 1.0 the distance-1.0 entries
///   are not stored: they are every domain value outside `near`, in ValueId
///   order, which is exactly where a (distance, ValueId) sort puts them.
/// - **Maintained under repository growth.** Refresh() inserts new domain
///   values into the cached lists they fall within and drops only the lists
///   of an attribute whose radius changed.
///
/// Not thread-safe: the lazy cache is filled on the read path, so each
/// instance is used from one imputing stage at a time.
class ValueNeighborhoods {
 public:
  /// One cached neighbour list.
  struct List {
    /// (distance, ValueId), ascending. With an implicit tail this holds
    /// only the entries at distance < 1.0.
    std::vector<std::pair<double, ValueId>> near;
    /// Whether every other domain value follows at distance 1.0.
    bool implicit_tail = false;
    bool built = false;
  };

  /// `radius[x]` caps the usable dependent-interval hi on attribute x; pass
  /// MaxRadiusPerAttr(rules, d) for a rule set.
  ValueNeighborhoods(const Repository* repo, std::vector<double> radius);

  static std::vector<double> MaxRadiusPerAttr(const std::vector<CddRule>& rules,
                                              int num_attributes);

  const List& Neighborhood(int attr, ValueId vid);

  /// Accumulates the candidate slice within `dep` around sample value
  /// `svid` into `counts` (+1 per value, Equation 3/4 semantics). `dep.hi`
  /// must not exceed the attribute's radius, and `counts` must have been
  /// Reset() to the attribute's current domain size.
  void AccumulateRange(int attr, ValueId svid, const Interval& dep,
                       CandidateCounts* counts);

  /// Brings the cache up to date after the repository's domains grew
  /// and/or the rules' radii changed (Section 5.5): new domain values are
  /// inserted into the cached lists they fall within, so every list equals
  /// a cold rebuild; the lists of an attribute whose radius changed are
  /// dropped and rebuild lazily.
  void Refresh(std::vector<double> radius);

 private:
  struct AttrState {
    double radius = 0.0;
    /// Domain size the lists and postings reflect.
    size_t known_size = 0;
    /// Indexed by ValueId; `built` marks the cached ones.
    std::vector<List> lists;
    /// Token -> ascending ValueIds carrying it.
    std::unordered_map<Token, std::vector<ValueId>> postings;
    /// Values with an empty token set (distance 0 to each other).
    std::vector<ValueId> empty_values;
    /// Whether `postings`, `empty_values` and `lists` are set up; done on
    /// the attribute's first list.
    bool postings_built = false;
  };

  /// Appends values [from, to) of `attr` to its postings.
  void IndexValues(int attr, size_t from, size_t to);
  void Build(int attr, ValueId center, List* list);
  /// Counts |tokens(v) ∩ tokens(center)| into inter_ for every v sharing a
  /// token with `center`, listing those v in inter_touched_.
  void CountIntersections(int attr, ValueId center);
  /// JaccardDistance(a, b) given their intersection size.
  double Distance(int attr, ValueId a, ValueId b, uint32_t inter) const;
  /// Main-pivot coordinate band of `center` at the attribute's radius.
  Interval Band(int attr, ValueId center) const;
  /// The membership test of the scan build: value `v` at distance `dist`
  /// from a centre with coordinate band `band`.
  bool Admits(int attr, const Interval& band, ValueId v, double dist) const;

  const Repository* repo_;
  std::vector<AttrState> attrs_;
  // Build scratch, indexed by ValueId.
  EpochArray<uint32_t> inter_;
  std::vector<ValueId> inter_touched_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
