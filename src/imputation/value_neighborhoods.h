#ifndef TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
#define TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "imputation/candidate_counts.h"
#include "repo/repository.h"
#include "repo/value_postings.h"
#include "rules/rule.h"

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
///   distance exactly 1.0, so a build counts intersections through the
///   shared ValuePostings and computes distances only for the values that
///   share a token. The sorted main-pivot coordinate band still filters
///   them, so a list equals the band-filtered scan bit for bit.
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
  /// MaxRadiusPerAttr(rules, d) for a rule set. `postings` (over the
  /// repository the lists describe) must outlive this object; other users
  /// may count through it, and may sync it ahead of Refresh().
  ValueNeighborhoods(ValuePostings* postings, std::vector<double> radius);

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
    /// Domain size the lists reflect. The shared postings may already
    /// index values beyond it; Refresh() brings the lists up to date.
    size_t known_size = 0;
    /// Indexed by ValueId; `built` marks the cached ones.
    std::vector<List> lists;
    /// Whether `lists` is allocated; done on the attribute's first list.
    bool lists_allocated = false;
  };

  void Build(int attr, ValueId center, List* list);
  /// Counts the intersections of value `center`'s tokens into overlaps_.
  void CountAround(int attr, ValueId center);
  /// Main-pivot coordinate band of `center` at the attribute's radius.
  Interval Band(int attr, ValueId center) const;
  /// The membership test of the scan build: value `v` at distance `dist`
  /// from a centre with coordinate band `band`.
  bool Admits(int attr, const Interval& band, ValueId v, double dist) const;

  const Repository* repo_;
  ValuePostings* postings_;
  std::vector<AttrState> attrs_;
  // Build scratch.
  TokenOverlaps overlaps_;
};

}  // namespace terids

#endif  // TERIDS_IMPUTATION_VALUE_NEIGHBORHOODS_H_
