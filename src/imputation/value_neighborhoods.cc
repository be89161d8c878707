#include "imputation/value_neighborhoods.h"

#include <algorithm>

namespace terids {

ValueNeighborhoods::ValueNeighborhoods(const Repository* repo,
                                       std::vector<double> radius)
    : repo_(repo) {
  TERIDS_CHECK(repo != nullptr);
  TERIDS_CHECK(static_cast<int>(radius.size()) == repo->num_attributes());
  attrs_.resize(radius.size());
  for (size_t x = 0; x < radius.size(); ++x) {
    attrs_[x].radius = radius[x];
    attrs_[x].known_size = repo->domain_size(static_cast<int>(x));
  }
}

std::vector<double> ValueNeighborhoods::MaxRadiusPerAttr(
    const std::vector<CddRule>& rules, int num_attributes) {
  std::vector<double> radius(num_attributes, 0.0);
  for (const CddRule& rule : rules) {
    radius[rule.dependent] =
        std::max(radius[rule.dependent], rule.dep_interval.hi);
  }
  return radius;
}

void ValueNeighborhoods::IndexValues(int attr, size_t from, size_t to) {
  AttrState& st = attrs_[attr];
  for (size_t v = from; v < to; ++v) {
    const ValueId vid = static_cast<ValueId>(v);
    const TokenSet& tokens = repo_->value_tokens(attr, vid);
    if (tokens.empty()) {
      st.empty_values.push_back(vid);
    }
    for (Token t : tokens) {
      st.postings[t].push_back(vid);
    }
  }
}

void ValueNeighborhoods::CountIntersections(int attr, ValueId center) {
  const AttrState& st = attrs_[attr];
  inter_.Clear(st.known_size);
  inter_touched_.clear();
  for (Token t : repo_->value_tokens(attr, center)) {
    auto it = st.postings.find(t);
    if (it == st.postings.end()) {
      continue;
    }
    for (ValueId v : it->second) {
      if (!inter_.IsSet(v)) {
        inter_touched_.push_back(v);
      }
      ++inter_.Slot(v);
    }
  }
}

double ValueNeighborhoods::Distance(int attr, ValueId a, ValueId b,
                                    uint32_t inter) const {
  // JaccardDistance's formula on a known intersection size, so distances
  // are bit-identical to the merge-based kernel.
  const size_t uni = repo_->value_tokens(attr, a).size() +
                     repo_->value_tokens(attr, b).size() - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

Interval ValueNeighborhoods::Band(int attr, ValueId center) const {
  // |coord(v) - coord(center)| <= dist(v, center): the coordinate band is a
  // sound prefilter for the radius ball, and the scan build applied it.
  const double coord = repo_->coord(attr, center);
  const double radius = attrs_[attr].radius;
  return Interval::Of(coord - radius, coord + radius);
}

bool ValueNeighborhoods::Admits(int attr, const Interval& band, ValueId v,
                                double dist) const {
  return band.Contains(repo_->coord(attr, v)) && dist <= attrs_[attr].radius;
}

void ValueNeighborhoods::Build(int attr, ValueId center, List* list) {
  const AttrState& st = attrs_[attr];
  const Interval band = Band(attr, center);
  list->near.clear();
  list->implicit_tail = st.radius >= 1.0;
  // Values sharing no token with the centre are at distance exactly 1.0
  // (two empty sets are at 0.0), so only the posting hits can be near.
  if (repo_->value_tokens(attr, center).empty()) {
    for (ValueId v : st.empty_values) {
      if (Admits(attr, band, v, 0.0)) {
        list->near.emplace_back(0.0, v);
      }
    }
  } else {
    CountIntersections(attr, center);
    for (ValueId v : inter_touched_) {
      const double dist = Distance(attr, center, v, inter_.Get(v));
      if (Admits(attr, band, v, dist)) {
        list->near.emplace_back(dist, v);
      }
    }
  }
  // Below radius 1.0 the band test and dist <= radius already dropped every
  // distance-1.0 value; at radius >= 1.0 they are the implicit tail.
  std::sort(list->near.begin(), list->near.end());
  list->built = true;
}

const ValueNeighborhoods::List& ValueNeighborhoods::Neighborhood(int attr,
                                                                 ValueId vid) {
  AttrState& st = attrs_[attr];
  // A larger vid means the domain grew without a Refresh().
  TERIDS_CHECK(vid < st.known_size);
  if (!st.postings_built) {
    // First list of this attribute: nothing is allocated at construction,
    // so engine set-up pays nothing for attributes never imputed.
    IndexValues(attr, 0, st.known_size);
    st.lists.resize(st.known_size);
    st.postings_built = true;
  }
  List& list = st.lists[vid];
  if (!list.built) {
    Build(attr, vid, &list);
  }
  return list;
}

void ValueNeighborhoods::AccumulateRange(int attr, ValueId svid,
                                         const Interval& dep,
                                         CandidateCounts* counts) {
  // A wider slice than the lists were built for would silently drop
  // candidates.
  TERIDS_CHECK(dep.hi <= attrs_[attr].radius);
  const List& list = Neighborhood(attr, svid);
  const auto& near = list.near;
  auto lo = std::lower_bound(near.begin(), near.end(),
                             std::make_pair(dep.lo, static_cast<ValueId>(0)));
  if (list.implicit_tail && dep.Contains(1.0)) {
    // The slice runs from `lo` through the whole tail: every domain value
    // except the near entries before the slice.
    counts->AddAll();
    for (auto it = near.begin(); it != lo; ++it) {
      counts->Remove(it->second);
    }
    return;
  }
  for (auto it = lo; it != near.end() && it->first <= dep.hi; ++it) {
    counts->Add(it->second);
  }
}

void ValueNeighborhoods::Refresh(std::vector<double> radius) {
  TERIDS_CHECK(radius.size() == attrs_.size());
  for (size_t x = 0; x < attrs_.size(); ++x) {
    const int attr = static_cast<int>(x);
    AttrState& st = attrs_[x];
    if (radius[x] != st.radius) {
      st.radius = radius[x];
      for (List& list : st.lists) {
        list = List{};
      }
    }
    const size_t old_size = st.known_size;
    const size_t new_size = repo_->domain_size(attr);
    if (new_size == old_size) {
      continue;
    }
    TERIDS_CHECK(new_size > old_size);  // Domains only grow.
    st.known_size = new_size;
    if (!st.postings_built) {
      continue;  // No list is cached yet; the first build indexes it all.
    }
    st.lists.resize(new_size);
    IndexValues(attr, old_size, new_size);
    // Sharing a token is symmetric, so a new value's own posting hits are
    // exactly the centres whose near part may gain it. New values have no
    // cached list yet; at radius >= 1.0 a value that lands in no near part
    // joins every implicit tail by growing the domain.
    for (size_t v = old_size; v < new_size; ++v) {
      const ValueId vid = static_cast<ValueId>(v);
      auto insert = [&](ValueId center, double dist) {
        List& list = st.lists[center];
        if (center == vid || !list.built ||
            !Admits(attr, Band(attr, center), vid, dist)) {
          return;
        }
        const std::pair<double, ValueId> entry(dist, vid);
        list.near.insert(
            std::upper_bound(list.near.begin(), list.near.end(), entry),
            entry);
      };
      if (repo_->value_tokens(attr, vid).empty()) {
        for (ValueId center : st.empty_values) {
          insert(center, 0.0);
        }
        continue;
      }
      CountIntersections(attr, vid);
      for (ValueId center : inter_touched_) {
        insert(center, Distance(attr, center, vid, inter_.Get(center)));
      }
    }
  }
}

}  // namespace terids
