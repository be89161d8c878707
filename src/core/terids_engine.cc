#include "core/terids_engine.h"

#include "imputation/rule_based_imputer.h"
#include "rules/rule_miner.h"
#include "util/stopwatch.h"

namespace terids {

TerIdsEngine::TerIdsEngine(Repository* repo, EngineConfig config,
                           int num_streams, std::vector<CddRule> rules)
    : PipelineBase(repo, std::move(config), num_streams, /*use_grid=*/true,
                   /*use_prunings=*/true, "TER-iDS"),
      rules_(std::move(rules)),
      cdd_index_(repo, &rules_),
      dr_index_(repo),
      neighborhoods_(repo, ValueNeighborhoods::MaxRadiusPerAttr(
                               rules_, repo->num_attributes())) {
  cdd_index_.Build();
  dr_index_.Build();
}

std::vector<AttrBand> TerIdsEngine::BandsForRule(const CddRule& rule,
                                                 const ProbeCoords& pc) const {
  const int d = repo_->num_attributes();
  std::vector<AttrBand> bands(d);
  for (const auto& [attr, constraint] : rule.determinants) {
    AttrBand& band = bands[attr];
    const int np = repo_->num_pivots(attr);
    if (constraint.kind == AttrConstraint::Kind::kInterval) {
      // Triangle inequality: |coord_a(s) - coord_a(r)| <= dist(r, s) <=
      // eps_max for every pivot a.
      const double eps = constraint.interval.hi;
      for (int a = 0; a < np && a < static_cast<int>(pc.coords[attr].size());
           ++a) {
        const double c = pc.coords[attr][a];
        band.pivot_bands.push_back(Interval::Of(c - eps, c + eps));
      }
    } else {
      // Constant: the sample must carry exactly this value.
      for (int a = 0; a < np; ++a) {
        const double c =
            repo_->pivot_distance(attr, a, constraint.constant_vid);
        band.pivot_bands.push_back(Interval::Of(c - 1e-9, c + 1e-9));
      }
    }
  }
  return bands;
}

std::vector<ImputedTuple::ImputedAttr> TerIdsEngine::Impute(
    const Record& r, const ProbeCoords& pc, CostBreakdown* cost) {
  std::vector<ImputedTuple::ImputedAttr> result;
  // The index join evaluates each (probe attribute, sample) Jaccard
  // distance at most once per arrival, no matter how many selected rules
  // constrain that attribute — this memo is the "simultaneous traversal"
  // payoff of Section 5.3 that the unindexed baselines do not get.
  const int d = repo_->num_attributes();
  dist_memo_.Clear(repo_->num_samples() * static_cast<size_t>(d));
  auto probe_sample_dist = [&](int attr, size_t sample_idx) {
    const size_t slot = sample_idx * static_cast<size_t>(d) + attr;
    if (!dist_memo_.IsSet(slot)) {
      dist_memo_.Slot(slot) = JaccardDistance(
          r.values[attr].tokens,
          repo_->sample(sample_idx).values[attr].tokens);
    }
    return dist_memo_.Get(slot);
  };
  auto determinants_satisfied = [&](const CddRule& rule, size_t sample_idx) {
    for (const auto& [attr, constraint] : rule.determinants) {
      if (constraint.kind == AttrConstraint::Kind::kConstant) {
        // Probe-side equality was verified by the CDD-index; check the
        // sample side.
        if (repo_->sample_value_id(sample_idx, attr) !=
            constraint.constant_vid) {
          return false;
        }
      } else if (!constraint.interval.Contains(
                     probe_sample_dist(attr, sample_idx))) {
        return false;
      }
    }
    return true;
  };
  for (int j : r.MissingAttributes()) {
    // CDD selection via the CDD-index.
    std::vector<int> selected;
    {
      ScopedTimer timer(cost ? &cost->cdd_select_seconds : nullptr);
      selected = cdd_index_.SelectRules(r, pc, j);
    }
    // Sample retrieval: ONE pruned DR-index pass shared by all selected
    // rules. The per-attribute filter is the union of the rules' coordinate
    // bands (sound whenever every selected rule constrains the attribute);
    // retrieved samples are verified against each rule with memoized
    // probe-sample distances, and candidate values come from the
    // precomputed neighbor lists. This is the "simultaneous traversal" of
    // Section 5.3: each distance is computed once per arrival (probe-side)
    // or once per engine lifetime (domain-side), not once per rule.
    counts_.Reset(repo_->domain_size(j));
    {
      ScopedTimer timer(cost ? &cost->impute_seconds : nullptr);
      // Union bands per attribute.
      std::vector<AttrBand> union_bands(d);
      std::vector<bool> all_rules_constrain(d, !selected.empty());
      std::vector<std::vector<Interval>> unions(d);
      for (int rule_idx : selected) {
        const CddRule& rule = rules_[rule_idx];
        const std::vector<AttrBand> bands = BandsForRule(rule, pc);
        for (int x = 0; x < d; ++x) {
          if (bands[x].pivot_bands.empty()) {
            all_rules_constrain[x] = false;
            continue;
          }
          if (unions[x].size() < bands[x].pivot_bands.size()) {
            unions[x].resize(bands[x].pivot_bands.size(), Interval::Empty());
          }
          for (size_t a = 0; a < bands[x].pivot_bands.size(); ++a) {
            unions[x][a].Union(bands[x].pivot_bands[a]);
          }
        }
      }
      for (int x = 0; x < d; ++x) {
        if (all_rules_constrain[x]) {
          union_bands[x].pivot_bands = unions[x];
        }
      }

      if (!selected.empty()) {
        for (size_t sample_idx : dr_index_.Retrieve(union_bands)) {
          for (int rule_idx : selected) {
            const CddRule& rule = rules_[rule_idx];
            if (!determinants_satisfied(rule, sample_idx)) {
              continue;
            }
            // Candidate set cand(s[A_j]): a binary-searched slice of the
            // sample value's distance-sorted neighbor list.
            neighborhoods_.AccumulateRange(
                j, repo_->sample_value_id(sample_idx, j), rule.dep_interval,
                &counts_);
          }
        }
      }
    }
    std::vector<ImputedTuple::Candidate> cands =
        counts_.Finalize(config_.max_candidates_per_attr);
    if (!cands.empty()) {
      ImputedTuple::ImputedAttr ia;
      ia.attr = j;
      ia.candidates = std::move(cands);
      result.push_back(std::move(ia));
    }
  }
  return result;
}

Status TerIdsEngine::AbsorbRepositoryBatch(const std::vector<Record>& batch) {
  RuleMiner miner(repo_, MinerOptions{});
  Status status = Status::Ok();
  bool widened = false;
  for (const Record& record : batch) {
    const size_t sample_idx = repo_->num_samples();
    status = repo_->AddSample(record);
    if (!status.ok()) {
      break;
    }
    dr_index_.InsertSample(sample_idx);
    // Widen rules the new sample violates. Samples are absorbed one at a
    // time, so each sees the batch samples before it but not after it.
    if (miner.AbsorbNewSample(sample_idx, &rules_) > 0) {
      widened = true;
    }
  }
  // Whatever was added before a failure is in R: bring the derived
  // structures up to date with it either way.
  if (widened) {
    cdd_index_.Build();  // Leaf aggregates changed; rebuild the lattice trees.
  }
  neighborhoods_.Refresh(
      ValueNeighborhoods::MaxRadiusPerAttr(rules_, repo_->num_attributes()));
  return status;
}

}  // namespace terids
