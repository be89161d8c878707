#ifndef TERIDS_INDEX_ARTREE_H_
#define TERIDS_INDEX_ARTREE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/interval.h"

namespace terids {

/// Aggregates carried by aR-tree nodes [20], merged bottom-up.
///
/// One concrete struct serves both index uses (Section 5.1):
///  * CDD-index leaves: `dep_interval` bounds the dependent constraint A_j.I
///    of the rules below; `aux_dist` bounds the distances from constant
///    constraints to the auxiliary pivots.
///  * DR-index leaves: `topic_mask` is the keyword Boolean vector;
///    `aux_dist` bounds sample-to-auxiliary-pivot distances;
///    `size_intervals` bounds token-set sizes.
struct NodeAggregates {
  uint64_t topic_mask = 0;
  Interval dep_interval = Interval::Empty();
  /// aux_dist[dim][a] bounds distances to auxiliary pivot a on dimension
  /// (attribute) dim. Ragged: attributes may have different pivot counts.
  std::vector<std::vector<Interval>> aux_dist;
  std::vector<Interval> size_intervals;

  void Merge(const NodeAggregates& other);
};

/// One indexed object: a d-dimensional box, an opaque payload id (rule index
/// or repository sample index), and its leaf-level aggregates.
struct ArTreeEntry {
  std::vector<Interval> box;
  int64_t payload = -1;
  NodeAggregates agg;
};

/// Aggregate R-tree over d-dimensional boxes.
///
/// Construction is bulk (k-d-style sort-tile-recurse); single insertions and
/// payload removals are supported for the dynamic-repository extension
/// (Section 5.5). Queries are visitor-driven: the caller's node predicate
/// sees the node's bounding box and merged aggregates and decides descent,
/// which is how all three pruning families (topic, distance band, size) are
/// expressed without specializing the tree.
class ArTree {
 public:
  struct NodeView {
    const std::vector<Interval>& box;
    const NodeAggregates& agg;
    bool is_leaf;
    int num_children;
  };

  explicit ArTree(int dims, int fanout = 16);

  /// Replaces the tree contents. Every entry's box must have `dims`
  /// dimensions.
  void BulkLoad(std::vector<ArTreeEntry> entries);

  /// Inserts a single entry (payloads must be unique across the tree).
  void Insert(ArTreeEntry entry);

  /// Removes the entry with this payload. Returns false if absent.
  bool Remove(int64_t payload);

  /// Depth-first traversal. `should_visit(const NodeView&) -> bool` gates
  /// every node (including the root); entries of visited leaves are passed
  /// to `on_entry(const ArTreeEntry&)`. Both are template parameters, so the
  /// index probes inline them instead of calling through std::function.
  template <typename NodePredicate, typename EntryVisitor>
  void Query(const NodePredicate& should_visit,
             const EntryVisitor& on_entry) const {
    if (root_ != -1) {
      QueryRec(root_, should_visit, on_entry);
    }
  }

  size_t size() const { return live_entries_; }
  int dims() const { return dims_; }

 private:
  struct Node {
    bool leaf = true;
    int parent = -1;
    std::vector<Interval> box;
    NodeAggregates agg;
    std::vector<int> children;       // node ids (internal nodes)
    std::vector<int> entry_ids;      // indices into entries_ (leaves)
  };

  int BuildRec(std::vector<int>* entry_ids, size_t begin, size_t end, int dim,
               int parent);
  void RecomputeNode(int node_id);
  void RecomputePath(int node_id);
  template <typename NodePredicate, typename EntryVisitor>
  void QueryRec(int node_id, const NodePredicate& should_visit,
                const EntryVisitor& on_entry) const;
  static void ExtendBox(std::vector<Interval>* box,
                        const std::vector<Interval>& with);

  int dims_;
  int fanout_;
  int root_ = -1;
  std::vector<Node> nodes_;
  std::vector<ArTreeEntry> entries_;
  std::vector<bool> entry_live_;
  size_t live_entries_ = 0;
  std::unordered_map<int64_t, int> payload_to_leaf_;
  std::unordered_map<int64_t, int> payload_to_entry_;
};

template <typename NodePredicate, typename EntryVisitor>
void ArTree::QueryRec(int node_id, const NodePredicate& should_visit,
                      const EntryVisitor& on_entry) const {
  const Node& node = nodes_[node_id];
  if (node.leaf && node.entry_ids.empty()) {
    return;
  }
  const NodeView view{node.box, node.agg, node.leaf,
                      static_cast<int>(node.leaf ? node.entry_ids.size()
                                                 : node.children.size())};
  if (!should_visit(view)) {
    return;
  }
  if (node.leaf) {
    for (int eid : node.entry_ids) {
      if (entry_live_[eid]) {
        on_entry(entries_[eid]);
      }
    }
    return;
  }
  for (int child : node.children) {
    QueryRec(child, should_visit, on_entry);
  }
}

}  // namespace terids

#endif  // TERIDS_INDEX_ARTREE_H_
