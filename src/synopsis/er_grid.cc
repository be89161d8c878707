#include "synopsis/er_grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/hash.h"
#include "util/status.h"

namespace terids {

ErGrid::ErGrid(int dims, double cell_width)
    : dims_(dims), cell_width_(cell_width) {
  TERIDS_CHECK(dims >= 1);
  TERIDS_CHECK(cell_width > 0.0);
}

std::vector<ErGrid::CellKey> ErGrid::CellsOf(const ImputedTuple& tuple) const {
  std::vector<CellKey> keys;
  for (int m = 0; m < tuple.num_instances(); ++m) {
    // Coordinates are small non-negative cell indices (coord/width in [0,
    // ~1/width]).
    uint64_t h = kFnv1aOffsetBasis;
    for (int k = 0; k < dims_; ++k) {
      const int32_t c = static_cast<int32_t>(
          std::floor(tuple.instance_coord(m, k) / cell_width_));
      h = Fnv1aMix(h, static_cast<uint64_t>(static_cast<uint32_t>(c)));
    }
    keys.push_back(h);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void ErGrid::AddMember(Cell* cell, const WindowTuple* wt) const {
  cell->members.push_back(wt);
  if (cell->bounds.empty()) {
    cell->bounds.assign(dims_, Interval::Empty());
  }
  for (int k = 0; k < dims_; ++k) {
    cell->bounds[k].Union(wt->tuple->pivot_dist_interval(k, 0));
  }
}

void ErGrid::RebuildCell(Cell* cell) const {
  std::vector<const WindowTuple*> members = std::move(cell->members);
  *cell = Cell();
  for (const WindowTuple* wt : members) {
    AddMember(cell, wt);
  }
}

void ErGrid::Insert(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  TERIDS_CHECK(tuple_cells_.count(wt->rid()) == 0);
  std::vector<CellKey> keys = CellsOf(*wt->tuple);
  for (CellKey key : keys) {
    AddMember(&cells_[key], wt);
  }
  tuple_cells_.emplace(wt->rid(), std::move(keys));
}

bool ErGrid::Remove(const WindowTuple* wt) {
  TERIDS_CHECK(wt != nullptr);
  auto it = tuple_cells_.find(wt->rid());
  if (it == tuple_cells_.end()) {
    return false;
  }
  for (CellKey key : it->second) {
    auto cit = cells_.find(key);
    TERIDS_CHECK(cit != cells_.end());
    Cell& cell = cit->second;
    cell.members.erase(
        std::remove(cell.members.begin(), cell.members.end(), wt),
        cell.members.end());
    if (cell.members.empty()) {
      cells_.erase(cit);
    } else {
      RebuildCell(&cell);
    }
  }
  tuple_cells_.erase(it);
  return true;
}

ErGrid::CandidateResult ErGrid::Candidates(const WindowTuple& probe,
                                           double gamma,
                                           bool topic_constrained) const {
  CandidateResult result;
  const ImputedTuple& q = *probe.tuple;
  const double dist_budget = static_cast<double>(dims_) - gamma;

  // Probe per-dimension coordinate intervals (main pivot).
  std::vector<Interval> q_bounds(dims_);
  for (int k = 0; k < dims_; ++k) {
    q_bounds[k] = q.pivot_dist_interval(k, 0);
  }

  // Per-member verdict: 0 = topic-pruned, 1 = sim-pruned, 2 = candidate. A
  // tuple spanning several cells keeps the max verdict over its cells.
  std::unordered_map<int64_t, std::pair<const WindowTuple*, int>> verdicts;
  for (const auto& [key, cell] : cells_) {
    (void)key;
    // Cell-level distance lower bound (Lemma 4.2 with the cell's bounds).
    double lb_dist = 0.0;
    for (int k = 0; k < dims_ && lb_dist < dist_budget; ++k) {
      lb_dist += q_bounds[k].MinAbsDiff(cell.bounds[k]);
    }
    const bool cell_sim_pass = lb_dist < dist_budget;

    for (const WindowTuple* member : cell.members) {
      if (member->stream_id() == probe.stream_id() ||
          member->rid() == probe.rid()) {
        continue;
      }
      int verdict;
      if (topic_constrained && !probe.topic.any && !member->topic.any) {
        verdict = 0;  // Topic-pruned regardless of geometry.
      } else if (!cell_sim_pass) {
        verdict = 1;
      } else {
        verdict = 2;
      }
      auto [it, inserted] =
          verdicts.emplace(member->rid(), std::make_pair(member, verdict));
      if (!inserted && verdict > it->second.second) {
        it->second.second = verdict;
      }
    }
  }

  for (const auto& [rid, pv] : verdicts) {
    (void)rid;
    if (pv.second == 2) {
      result.candidates.push_back(pv.first);
    } else if (pv.second == 1) {
      ++result.sim_pruned;
    } else {
      ++result.topic_pruned;
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const WindowTuple* a, const WindowTuple* b) {
              return a->rid() < b->rid();
            });
  return result;
}

}  // namespace terids
