#include "index/cdd_index.h"

#include <cmath>

#include "util/bits.h"

namespace terids {

namespace {
// Geometry markers (see class comment). Constants live in [0,1], so the
// markers are disjoint from real coordinates.
constexpr double kIntervalMarker = -1.0;
constexpr double kUnusedMarker = -2.0;
// Exact-match tolerance for coordinate equality of constants.
constexpr double kCoordEps = 1e-9;
}  // namespace

CddIndex::CddIndex(const Repository* repo, const std::vector<CddRule>* rules)
    : repo_(repo), rules_(rules) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(rules != nullptr);
}

ArTreeEntry CddIndex::MakeEntry(int rule_idx) const {
  const CddRule& rule = (*rules_)[rule_idx];
  const int d = repo_->num_attributes();
  ArTreeEntry entry;
  entry.payload = rule_idx;
  entry.box.assign(d, Interval::Point(kUnusedMarker));
  entry.agg.dep_interval = rule.dep_interval;
  entry.agg.aux_dist.resize(d);
  for (const auto& [attr, constraint] : rule.determinants) {
    if (constraint.kind == AttrConstraint::Kind::kConstant) {
      const double coord = repo_->coord(attr, constraint.constant_vid);
      entry.box[attr] = Interval::Point(coord);
      const int np = repo_->num_pivots(attr);
      for (int a = 1; a < np; ++a) {
        entry.agg.aux_dist[attr].push_back(Interval::Point(
            repo_->pivot_distance(attr, a, constraint.constant_vid)));
      }
    } else {
      entry.box[attr] = Interval::Point(kIntervalMarker);
    }
  }
  return entry;
}

int CddIndex::FindOrAddGroup(int dependent, uint32_t det_mask) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].dependent == dependent && groups_[g].det_mask == det_mask) {
      return static_cast<int>(g);
    }
  }
  groups_.emplace_back(repo_->num_attributes());
  Group& group = groups_.back();
  group.dependent = dependent;
  group.det_mask = det_mask;
  group.level = PopCount(det_mask);
  return static_cast<int>(groups_.size()) - 1;
}

void CddIndex::Build() {
  groups_.clear();
  // Partition rules into lattice groups, then bulk load each group's tree.
  std::vector<std::vector<ArTreeEntry>> group_entries;
  for (size_t i = 0; i < rules_->size(); ++i) {
    const CddRule& rule = (*rules_)[i];
    const int g = FindOrAddGroup(rule.dependent, rule.det_mask);
    if (static_cast<size_t>(g) >= group_entries.size()) {
      group_entries.resize(g + 1);
    }
    group_entries[g].push_back(MakeEntry(static_cast<int>(i)));
  }
  for (size_t g = 0; g < group_entries.size(); ++g) {
    groups_[g].tree.BulkLoad(std::move(group_entries[g]));
  }
}

void CddIndex::InsertRule(int rule_idx) {
  const CddRule& rule = (*rules_)[rule_idx];
  const int g = FindOrAddGroup(rule.dependent, rule.det_mask);
  groups_[g].tree.Insert(MakeEntry(rule_idx));
}

bool CddIndex::RemoveRule(int rule_idx) {
  const CddRule& rule = (*rules_)[rule_idx];
  for (Group& group : groups_) {
    if (group.dependent == rule.dependent && group.det_mask == rule.det_mask) {
      return group.tree.Remove(rule_idx);
    }
  }
  return false;
}

template <typename OnRule>
void CddIndex::ProbeGroup(const Group& group, const Record& r,
                          const ProbeCoords& pc, const OnRule& on_rule) const {
  group.tree.Query(
      [&](const ArTree::NodeView& node) {
        // Per determinant dimension, the node must contain the interval
        // marker or a constant compatible with the probe coordinate.
        for (int x = 0; x < repo_->num_attributes(); ++x) {
          if ((group.det_mask & (1u << x)) == 0) {
            continue;
          }
          const Interval& box = node.box[x];
          const bool has_marker = box.lo <= kIntervalMarker + kCoordEps;
          const Interval probe_band = Interval::Of(pc.main(x) - kCoordEps,
                                                   pc.main(x) + kCoordEps);
          if (!has_marker && !box.Overlaps(probe_band)) {
            return false;
          }
        }
        return true;
      },
      [&](const ArTreeEntry& entry) {
        const int rule_idx = static_cast<int>(entry.payload);
        const CddRule& rule = (*rules_)[rule_idx];
        // Exact verification of constant constraints against the probe.
        for (const auto& [attr, constraint] : rule.determinants) {
          if (constraint.kind != AttrConstraint::Kind::kConstant) {
            continue;
          }
          if (std::abs(pc.main(attr) -
                       repo_->coord(attr, constraint.constant_vid)) >
              kCoordEps) {
            return;
          }
          if (!(r.values[attr].tokens ==
                repo_->value_tokens(attr, constraint.constant_vid))) {
            return;
          }
        }
        on_rule(rule, rule_idx);
      });
}

std::vector<int> CddIndex::SelectRules(const Record& r, const ProbeCoords& pc,
                                       int dependent) const {
  std::vector<int> out;
  const uint32_t missing = r.MissingMask();
  for (const Group& group : groups_) {
    if (group.dependent != dependent) {
      continue;
    }
    if ((group.det_mask & missing) != 0) {
      continue;  // A determinant is missing in r; group inapplicable.
    }
    ProbeGroup(group, r, pc,
               [&out](const CddRule& rule, int idx) {
                 (void)rule;
                 out.push_back(idx);
               });
  }
  return out;
}

Interval CddIndex::CoarseDependentBound(const Record& r, const ProbeCoords& pc,
                                        int dependent) const {
  Interval bound = Interval::Empty();
  const uint32_t missing = r.MissingMask();
  for (const Group& group : groups_) {
    if (group.dependent != dependent || (group.det_mask & missing) != 0) {
      continue;
    }
    ProbeGroup(group, r, pc,
               [&bound](const CddRule& rule, int idx) {
                 (void)idx;
                 bound.Union(rule.dep_interval);
               });
  }
  return bound;
}

}  // namespace terids
