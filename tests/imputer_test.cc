#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "imputation/candidate_counts.h"
#include "imputation/constraint_imputer.h"
#include "imputation/rule_based_imputer.h"
#include "imputation/value_neighborhoods.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class RuleBasedImputerTest : public ::testing::Test {
 protected:
  RuleBasedImputerTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
  }
  ToyWorld world_;
  std::vector<CddRule> rules_;
};

TEST_F(RuleBasedImputerTest, ImputesDiagnosisFromSymptoms) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  // Post a2 of the paper's Table 1: diabetic symptoms, missing diagnosis.
  Record r = world_.Make(1, {"male", "loss of weight blurred vision", "-",
                             "drug therapy"});
  auto imputed = imputer.ImputeRecord(r, nullptr);
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0].attr, 2);
  ASSERT_FALSE(imputed[0].candidates.empty());
  // The top candidate must be "diabetes" (it dominates the frequency vote).
  const ValueId top = imputed[0].candidates[0].vid;
  EXPECT_EQ(world_.repo->domain(2).text(top), "diabetes");
  // Probabilities are a normalized distribution.
  double total = 0;
  for (const auto& c : imputed[0].candidates) {
    EXPECT_GT(c.prob, 0.0);
    total += c.prob;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST_F(RuleBasedImputerTest, CompleteRecordNeedsNoImputation) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_TRUE(imputer.ImputeRecord(r, nullptr).empty());
}

TEST_F(RuleBasedImputerTest, CoordFilterDoesNotChangeCandidates) {
  // The sorted-coordinate prefilter is a pure optimization: candidate
  // distributions must be identical with and without it.
  RuleImputerOptions with_filter;
  with_filter.use_coord_filter = true;
  RuleImputerOptions without_filter;
  without_filter.use_coord_filter = false;
  RuleBasedImputer fast(world_.repo.get(), rules_, with_filter);
  RuleBasedImputer slow(world_.repo.get(), rules_, without_filter);
  const std::vector<Record> probes = {
      world_.Make(1, {"male", "loss of weight blurred vision", "-", "-"}),
      world_.Make(2, {"female", "fever cough", "-", "rest"}),
      world_.Make(3, {"male", "-", "diabetes", "-"}),
  };
  for (const Record& r : probes) {
    auto a = fast.ImputeRecord(r, nullptr);
    auto b = slow.ImputeRecord(r, nullptr);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].candidates.size(), b[i].candidates.size());
      for (size_t c = 0; c < a[i].candidates.size(); ++c) {
        EXPECT_EQ(a[i].candidates[c].vid, b[i].candidates[c].vid);
        EXPECT_DOUBLE_EQ(a[i].candidates[c].prob, b[i].candidates[c].prob);
      }
    }
  }
}

TEST_F(RuleBasedImputerTest, CostAccountingSplitsPhases) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  Record r = world_.Make(1, {"male", "loss of weight", "-", "-"});
  CostBreakdown cost;
  imputer.ImputeRecord(r, &cost);
  EXPECT_GT(cost.cdd_select_seconds + cost.impute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.er_seconds, 0.0);
}

TEST_F(RuleBasedImputerTest, RulesForDependentPartitionsRuleSet) {
  RuleBasedImputer imputer(world_.repo.get(), rules_, RuleImputerOptions{});
  size_t total = 0;
  for (int j = 0; j < world_.repo->num_attributes(); ++j) {
    for (int idx : imputer.RulesForDependent(j)) {
      EXPECT_EQ(imputer.rules()[idx].dependent, j);
      ++total;
    }
  }
  EXPECT_EQ(total, rules_.size());
}

using NeighborList = std::vector<std::pair<double, ValueId>>;

/// The scan build the neighbourhood lists must reproduce: every value in the
/// centre's main-pivot coordinate band within `radius`, sorted by
/// (distance, ValueId).
NeighborList ScanNeighborhood(const Repository& repo, int attr, ValueId center,
                              double radius) {
  const double coord = repo.coord(attr, center);
  NeighborList out;
  for (ValueId v : repo.ValuesInCoordRange(
           attr, Interval::Of(coord - radius, coord + radius))) {
    const double dist = JaccardDistance(repo.value_tokens(attr, center),
                                        repo.value_tokens(attr, v));
    if (dist <= radius) {
      out.emplace_back(dist, v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A cached list with its implicit tail spelled out.
NeighborList Expand(const ValueNeighborhoods::List& list, size_t domain_size) {
  NeighborList out = list.near;
  if (list.implicit_tail) {
    std::vector<bool> near(domain_size, false);
    for (const auto& [dist, v] : list.near) {
      near[v] = true;
    }
    for (ValueId v = 0; v < domain_size; ++v) {
      if (!near[v]) {
        out.emplace_back(1.0, v);
      }
    }
  }
  return out;
}

/// The health world plus an empty value on every attribute, so lists meet
/// the empty-set convention (two empty sets are at distance 0).
ToyWorld MakeWorldWithEmptyValues() {
  ToyWorld world = MakeHealthWorld();
  for (int x = 0; x < world.repo->num_attributes(); ++x) {
    world.repo->RegisterValue(x, TokenSet(), "");
  }
  return world;
}

TEST(ValueNeighborhoodsTest, ListsEqualScanBuild) {
  ToyWorld world = MakeWorldWithEmptyValues();
  const Repository& repo = *world.repo;
  for (const double r : {0.3, 0.8, 1.0}) {
    ValueNeighborhoods neighborhoods(
        world.repo.get(), std::vector<double>(repo.num_attributes(), r));
    for (int attr = 0; attr < repo.num_attributes(); ++attr) {
      for (ValueId center = 0; center < repo.domain_size(attr); ++center) {
        const ValueNeighborhoods::List& list =
            neighborhoods.Neighborhood(attr, center);
        EXPECT_EQ(list.implicit_tail, r >= 1.0);
        for (const auto& [dist, v] : list.near) {
          EXPECT_LT(dist, 1.0);
        }
        EXPECT_EQ(Expand(list, repo.domain_size(attr)),
                  ScanNeighborhood(repo, attr, center, r))
            << "radius=" << r << " attr=" << attr << " center=" << center;
      }
    }
  }
}

TEST(ValueNeighborhoodsTest, SlicesMatchBruteForce) {
  ToyWorld world = MakeWorldWithEmptyValues();
  const Repository& repo = *world.repo;
  const std::vector<Interval> below_one = {
      Interval::Of(0.0, 0.0), Interval::Of(0.0, 0.3), Interval::Of(0.2, 0.6),
      Interval::Of(0.0, 0.8)};
  const std::vector<Interval> with_one = {
      Interval::Of(0.0, 1.0), Interval::Of(0.5, 1.0), Interval::Of(1.0, 1.0),
      Interval::Of(0.9, 1.0)};
  for (const double r : {0.8, 1.0}) {
    std::vector<Interval> deps = below_one;
    if (r >= 1.0) {
      deps.insert(deps.end(), with_one.begin(), with_one.end());
    }
    ValueNeighborhoods neighborhoods(
        world.repo.get(), std::vector<double>(repo.num_attributes(), r));
    CandidateCounts counts;
    for (int attr = 0; attr < repo.num_attributes(); ++attr) {
      const size_t n = repo.domain_size(attr);
      for (ValueId center = 0; center < n; ++center) {
        for (const Interval& dep : deps) {
          // Two slices into one distribution, so counts of 2 occur and the
          // base-plus-exceptions path meets a second accumulation.
          const ValueId other = (center + 1) % n;
          counts.Reset(n);
          neighborhoods.AccumulateRange(attr, center, dep, &counts);
          neighborhoods.AccumulateRange(attr, other, dep, &counts);
          std::vector<int> expected(n, 0);
          int total = 0;
          for (ValueId v = 0; v < n; ++v) {
            for (ValueId c : {center, other}) {
              if (dep.Contains(JaccardDistance(repo.value_tokens(attr, c),
                                               repo.value_tokens(attr, v)))) {
                ++expected[v];
                ++total;
              }
            }
          }
          std::vector<int> got(n, 0);
          for (const ImputedTuple::Candidate& cand :
               counts.Finalize(static_cast<int>(n))) {
            got[cand.vid] = static_cast<int>(cand.prob * total + 0.5);
            EXPECT_EQ(cand.prob, static_cast<double>(got[cand.vid]) / total);
          }
          EXPECT_EQ(got, expected) << "radius=" << r << " attr=" << attr
                                   << " center=" << center << " dep=["
                                   << dep.lo << "," << dep.hi << "]";
        }
      }
    }
  }
}

TEST(ValueNeighborhoodsTest, RefreshAfterGrowthEqualsColdRebuild) {
  for (const double r : {0.8, 1.0}) {
    ToyWorld world = MakeHealthWorld();
    Repository& repo = *world.repo;
    const std::vector<double> radius(repo.num_attributes(), r);
    ValueNeighborhoods warm(world.repo.get(), radius);
    std::vector<size_t> before(repo.num_attributes());
    for (int attr = 0; attr < repo.num_attributes(); ++attr) {
      before[attr] = repo.domain_size(attr);
      for (ValueId v = 0; v < before[attr]; ++v) {
        warm.Neighborhood(attr, v);
      }
    }
    // New values sharing tokens with cached centres, a disjoint one and an
    // empty one; "drug rest" also lands between existing entries.
    Tokenizer tok(world.dict.get());
    for (const char* text :
         {"drug rest", "eye drop therapy", "brand new treatment", ""}) {
      repo.RegisterValue(3, tok.Tokenize(text), text);
    }
    repo.RegisterValue(1, tok.Tokenize("fever thirst"), "fever thirst");
    warm.Refresh(radius);

    ValueNeighborhoods cold(world.repo.get(), radius);
    for (int attr = 0; attr < repo.num_attributes(); ++attr) {
      for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
        const ValueNeighborhoods::List& w = warm.Neighborhood(attr, v);
        const ValueNeighborhoods::List& c = cold.Neighborhood(attr, v);
        EXPECT_EQ(w.near, c.near) << "radius=" << r << " attr=" << attr
                                  << " center=" << v;
        EXPECT_EQ(w.implicit_tail, c.implicit_tail);
      }
    }
    EXPECT_EQ(repo.domain_size(3), before[3] + 4);
  }
}

TEST(ValueNeighborhoodsTest, RefreshWithWiderRadiusRebuildsLists) {
  ToyWorld world = MakeHealthWorld();
  const Repository& repo = *world.repo;
  const int attr = 3;
  std::vector<double> radius(repo.num_attributes(), 0.5);
  ValueNeighborhoods neighborhoods(world.repo.get(), radius);
  for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
    neighborhoods.Neighborhood(attr, v);
  }
  radius[attr] = 1.0;
  neighborhoods.Refresh(radius);
  for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
    EXPECT_EQ(Expand(neighborhoods.Neighborhood(attr, v),
                     repo.domain_size(attr)),
              ScanNeighborhood(repo, attr, v, 1.0));
  }
}

TEST(CandidateCountsTest, FinalizeOrdersCapsAndRenormalizes) {
  CandidateCounts counts;
  counts.Reset(6);
  for (ValueId v : {4, 1, 4, 2, 4, 1, 5}) {
    counts.Add(v);
  }
  // Counts: 4 -> 3, 1 -> 2, 2 -> 1, 5 -> 1 (total 7).
  std::vector<ImputedTuple::Candidate> all = counts.Finalize(10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].vid, 4u);
  EXPECT_EQ(all[0].prob, 3.0 / 7.0);
  EXPECT_EQ(all[1].vid, 1u);
  EXPECT_EQ(all[2].vid, 2u);  // Ties break by ascending ValueId.
  EXPECT_EQ(all[3].vid, 5u);
  std::vector<ImputedTuple::Candidate> top = counts.Finalize(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].vid, 4u);
  EXPECT_DOUBLE_EQ(top[0].prob, 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(top[1].prob, 2.0 / 5.0);
}

TEST(CandidateCountsTest, ResetForgetsAndAddAllCoversTheDomain) {
  CandidateCounts counts;
  counts.Reset(4);
  counts.Add(0);
  counts.Reset(4);
  EXPECT_TRUE(counts.Finalize(10).empty());
  // Every value once, minus value 2, plus value 3 again: 0, 1 at 1/4 each
  // and 3 at 2/4.
  counts.AddAll();
  counts.Remove(2);
  counts.Add(3);
  std::vector<ImputedTuple::Candidate> out = counts.Finalize(10);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].vid, 3u);
  EXPECT_EQ(out[0].prob, 0.5);
  EXPECT_EQ(out[1].vid, 0u);
  EXPECT_EQ(out[2].vid, 1u);
  EXPECT_EQ(out[2].prob, 0.25);
}

TEST(ConstraintImputerTest, UsesMostRecentCompleteDonor) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), /*history_cap=*/10);
  Record first = world.Make(1, {"male", "fever", "flu", "rest"});
  first.stream_id = 0;
  Record second = world.Make(2, {"female", "cough", "pneumonia", "antibiotics"});
  second.stream_id = 0;
  imputer.OnArrival(first);
  imputer.OnArrival(second);

  Record incomplete = world.Make(3, {"male", "headache", "-", "-"});
  incomplete.stream_id = 0;
  auto imputed = imputer.ImputeRecord(incomplete, nullptr);
  ASSERT_EQ(imputed.size(), 2u);
  // Sequential semantics [43]: the donor is the most recent (rid 2).
  EXPECT_EQ(world.repo->domain(2).text(imputed[0].candidates[0].vid),
            "pneumonia");
  EXPECT_DOUBLE_EQ(imputed[0].candidates[0].prob, 1.0);
}

TEST(ConstraintImputerTest, IgnoresOtherStreamsAndIncompleteDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record other_stream = world.Make(1, {"male", "fever", "flu", "rest"});
  other_stream.stream_id = 1;
  Record incomplete_donor = world.Make(2, {"male", "fever", "-", "rest"});
  incomplete_donor.stream_id = 0;
  imputer.OnArrival(other_stream);
  imputer.OnArrival(incomplete_donor);

  Record probe = world.Make(3, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

TEST(ConstraintImputerTest, EvictionForgetsExpiredDonors) {
  ToyWorld world = MakeHealthWorld();
  ConstraintImputer imputer(world.repo.get(), 10);
  Record donor = world.Make(1, {"male", "fever", "flu", "rest"});
  donor.stream_id = 0;
  imputer.OnArrival(donor);
  imputer.OnEvict(donor);
  Record probe = world.Make(2, {"male", "cough", "-", "rest"});
  probe.stream_id = 0;
  EXPECT_TRUE(imputer.ImputeRecord(probe, nullptr).empty());
}

}  // namespace
}  // namespace terids
