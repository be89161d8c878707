#ifndef TERIDS_INDEX_CDD_INDEX_H_
#define TERIDS_INDEX_CDD_INDEX_H_

#include <vector>

#include "index/artree.h"
#include "index/dr_index.h"
#include "repo/repository.h"
#include "rules/rule.h"

namespace terids {

/// The CDD-index I_j (Section 5.1, Figure 2): a lattice of determinant
/// attribute sets, each lattice node holding an aR-tree over the constraint
/// geometry of its rules.
///
/// Geometry encoding per determinant dimension x (as in the paper):
///  * constant constraint v  -> the point coord dist(v, piv_1[A_x]);
///  * interval constraint    -> the marker [-1,-1];
///  * attribute not in X     -> the marker [-2,-2].
/// Constant constraints additionally carry their auxiliary-pivot distances
/// as leaf aggregates; the dependent interval A_j.I is aggregated on every
/// node so the 3-way join can derive coarse candidate bands early.
class CddIndex {
 public:
  CddIndex(const Repository* repo, const std::vector<CddRule>* rules);

  /// Builds the lattice and the per-group aR-trees.
  void Build();

  /// Adds a rule appended to the rule vector after Build() (dynamic rule
  /// maintenance, Section 5.5).
  void InsertRule(int rule_idx);
  /// Removes a rule from the index. Returns false if absent.
  bool RemoveRule(int rule_idx);

  /// Indices of rules with dependent attribute `dependent` that are
  /// applicable to the probe record (determinants all non-missing) and whose
  /// constraint geometry is compatible with the probe coordinates: constant
  /// constraints must match the probe value (verified exactly against the
  /// domain). Interval constraints are not filtered here — they constrain
  /// the (r, sample) pair, which the DR-index side evaluates.
  std::vector<int> SelectRules(const Record& r, const ProbeCoords& pc,
                               int dependent) const;

  /// Union bound of the dependent intervals of all rules selected for this
  /// group probe; used by the engine to size the coarse candidate band of
  /// the index join before individual rules are examined.
  Interval CoarseDependentBound(const Record& r, const ProbeCoords& pc,
                                int dependent) const;

  size_t num_groups() const { return groups_.size(); }

 private:
  struct Group {
    int dependent = -1;
    uint32_t det_mask = 0;
    int level = 0;  // popcount(det_mask), the lattice level.
    ArTree tree;
    Group(int dims) : tree(dims) {}
  };

  ArTreeEntry MakeEntry(int rule_idx) const;
  int FindOrAddGroup(int dependent, uint32_t det_mask);
  /// Passes every rule of `group` compatible with the probe to
  /// `on_rule(const CddRule&, int rule_idx)`.
  template <typename OnRule>
  void ProbeGroup(const Group& group, const Record& r, const ProbeCoords& pc,
                  const OnRule& on_rule) const;

  const Repository* repo_;
  const std::vector<CddRule>* rules_;
  std::vector<Group> groups_;
};

}  // namespace terids

#endif  // TERIDS_INDEX_CDD_INDEX_H_
