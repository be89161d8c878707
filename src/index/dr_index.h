#ifndef TERIDS_INDEX_DR_INDEX_H_
#define TERIDS_INDEX_DR_INDEX_H_

#include <vector>

#include "index/artree.h"
#include "repo/repository.h"
#include "tuple/record.h"

namespace terids {

/// Pivot-converted coordinates of a probe record: coords[x][a] =
/// dist(r[A_x], piv_a[A_x]), or -1 when r[A_x] is missing. Computed once
/// per arrival and shared by the CDD-index and DR-index probes.
struct ProbeCoords {
  std::vector<std::vector<double>> coords;

  static ProbeCoords Compute(const Record& r, const Repository& repo);

  bool missing(int attr) const { return coords[attr].empty(); }
  double main(int attr) const { return coords[attr][0]; }
};

/// Per-attribute retrieval constraint for the DR-index: coordinate bands
/// against each pivot (index 0 = main pivot) derived from a CDD constraint
/// via the triangle inequality. An empty `pivot_bands` leaves the attribute
/// unconstrained.
struct AttrBand {
  std::vector<Interval> pivot_bands;
  Interval size_band = Interval::Empty();  // empty = unconstrained
};

/// The DR-index I_R (Section 5.1, Figure 3): an aR-tree over the samples of
/// the data repository converted to d-dimensional main-pivot coordinate
/// points, with keyword / auxiliary-distance / token-size aggregates.
class DrIndex {
 public:
  explicit DrIndex(const Repository* repo);

  /// (Re)builds the tree over all current repository samples. Pivots must
  /// be attached to the repository.
  void Build();

  /// Inserts one sample (dynamic repository maintenance, Section 5.5).
  void InsertSample(size_t sample_idx);

  /// Sample indices passing all band filters. This is the
  /// necessary-condition retrieval; callers verify exact constraints.
  std::vector<size_t> Retrieve(const std::vector<AttrBand>& bands) const;

  size_t size() const { return tree_.size(); }

 private:
  ArTreeEntry MakeEntry(size_t sample_idx) const;

  const Repository* repo_;
  ArTree tree_;
};

}  // namespace terids

#endif  // TERIDS_INDEX_DR_INDEX_H_
