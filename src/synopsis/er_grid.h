#ifndef TERIDS_SYNOPSIS_ER_GRID_H_
#define TERIDS_SYNOPSIS_ER_GRID_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "stream/sliding_window.h"
#include "util/interval.h"

namespace terids {

/// The ER-grid synopsis G_ER (Section 5.2): the converted space [0,1]^d cut
/// into cells of side `cell_width`, materialized lazily as a hash map keyed
/// by a 64-bit FNV-1a hash of the cell's integer coordinates. Each imputed
/// instance of a tuple lands in one cell; a cell aggregates the
/// per-dimension coordinate bounds of its members, which drive cell-level
/// distance pruning (Lemma 4.2), and each member's topic classification
/// drives topic pruning (Theorem 4.1).
///
/// Single-writer and mutex-free (DESIGN.md §12): the pipeline's ingest
/// stage owns the grid — inserts, removals, and probes all run on the one
/// thread that holds the ingest stage at that moment.
class ErGrid {
 public:
  /// `dims` = number of attributes d; `cell_width` = side length of a cell
  /// in the converted space.
  ErGrid(int dims, double cell_width);

  /// Adds `wt` to every cell one of its imputed instances falls into.
  void Insert(const WindowTuple* wt);
  /// Removes an expired tuple from every cell it occupies. Returns false if
  /// it was never inserted.
  bool Remove(const WindowTuple* wt);

  size_t num_tuples() const { return tuple_cells_.size(); }
  size_t num_cells() const { return cells_.size(); }

  /// Candidate retrieval for a probe tuple, with cell-level topic and
  /// distance-bound pruning.
  struct CandidateResult {
    /// Surviving candidates in ascending-rid order.
    std::vector<const WindowTuple*> candidates;
    /// Tuples (from other streams) pruned because neither they nor the
    /// probe can contain a query keyword (Theorem 4.1 at grid level).
    uint64_t topic_pruned = 0;
    /// Tuples pruned by the cell-level pivot distance bound (Lemma 4.2 at
    /// grid level).
    uint64_t sim_pruned = 0;
  };

  /// `topic_constrained` is false for an unconstrained query (K = all), in
  /// which case topic pruning is skipped. Tuples from the probe's own
  /// stream are ignored entirely (TER-iDS pairs span two streams). A tuple
  /// spanning several cells takes the most permissive verdict over its
  /// cells, so it is counted exactly once.
  CandidateResult Candidates(const WindowTuple& probe, double gamma,
                             bool topic_constrained) const;

 private:
  using CellKey = uint64_t;

  struct Cell {
    std::vector<const WindowTuple*> members;
    std::vector<Interval> bounds;  // per-dim cover of member intervals
  };

  /// The sorted, deduplicated keys of the cells `tuple`'s instances occupy.
  std::vector<CellKey> CellsOf(const ImputedTuple& tuple) const;
  void AddMember(Cell* cell, const WindowTuple* wt) const;
  void RebuildCell(Cell* cell) const;

  int dims_;
  double cell_width_;
  std::unordered_map<CellKey, Cell> cells_;
  // rid -> the cell keys the tuple occupies (for removal).
  std::unordered_map<int64_t, std::vector<CellKey>> tuple_cells_;
};

}  // namespace terids

#endif  // TERIDS_SYNOPSIS_ER_GRID_H_
