#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "er/similarity.h"
#include "synopsis/er_grid.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class ErGridTest : public ::testing::Test {
 protected:
  ErGridTest()
      : world_(MakeHealthWorld()),
        topic_(*world_.dict, {"diabetes"}),
        grid_(world_.repo->num_attributes(), 0.2) {}

  std::shared_ptr<WindowTuple> MakeTuple(
      int64_t rid, int stream, const std::vector<std::string>& texts) {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromComplete(r, world_.repo.get()));
    wt->topic = topic_.Classify(*wt->tuple);
    return wt;
  }

  /// A spread-out imputed tuple: up to `count` candidate values (from
  /// `first` on) for the missing attribute `attr` put its instances into
  /// several cells at a fine cell width.
  std::shared_ptr<WindowTuple> MakeSpreadTuple(int64_t rid, int stream,
                                               int attr = 2,
                                               ValueId first = 0,
                                               ValueId count = 5) {
    std::vector<std::string> texts = {"male", "blurred vision", "diabetes",
                                      "drug therapy"};
    texts[attr] = "-";
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    const AttributeDomain& dom = world_.repo->domain(attr);
    ImputedTuple::ImputedAttr ia;
    ia.attr = attr;
    for (ValueId v = first; v < dom.size() && v < first + count; ++v) {
      ia.candidates.push_back({v, 1.0 / static_cast<double>(count)});
    }
    auto wt = std::make_shared<WindowTuple>();
    wt->tuple = std::make_shared<const ImputedTuple>(
        ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16));
    wt->topic = topic_.Classify(*wt->tuple);
    return wt;
  }

  ToyWorld world_;
  TopicQuery topic_;
  ErGrid grid_;
  std::vector<std::shared_ptr<WindowTuple>> keep_alive_;
};

TEST_F(ErGridTest, InsertRemoveBookkeeping) {
  auto a = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto b = MakeTuple(2, 1, {"female", "cough", "flu", "rest"});
  grid_.Insert(a.get());
  grid_.Insert(b.get());
  EXPECT_EQ(grid_.num_tuples(), 2u);
  EXPECT_GE(grid_.num_cells(), 1u);
  EXPECT_TRUE(grid_.Remove(a.get()));
  EXPECT_EQ(grid_.num_tuples(), 1u);
  EXPECT_FALSE(grid_.Remove(a.get()));  // Already removed.
  EXPECT_TRUE(grid_.Remove(b.get()));
  EXPECT_EQ(grid_.num_cells(), 0u);
}

TEST_F(ErGridTest, CandidatesExcludeSameStream) {
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto same = MakeTuple(2, 0, {"male", "fever", "flu", "rest"});
  auto other = MakeTuple(3, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(same.get());
  grid_.Insert(other.get());
  ErGrid::CandidateResult result =
      grid_.Candidates(*probe, /*gamma=*/2.0, /*topic_constrained=*/false);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0]->rid(), 3);
}

TEST_F(ErGridTest, TopicPruningRemovesNonTopicalPairs) {
  // Neither probe nor member mentions diabetes: pair is prunable, even at a
  // similarity threshold the pair easily clears.
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  auto member = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(member.get());
  ErGrid::CandidateResult result =
      grid_.Candidates(*probe, /*gamma=*/2.0, /*topic_constrained=*/true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);

  // A topical (diabetic) probe revives the pair — either side may carry the
  // topic (gamma low enough that geometry cannot prune).
  auto diabetic =
      MakeTuple(3, 0, {"male", "blurred vision", "diabetes", "drug therapy"});
  result = grid_.Candidates(*diabetic, /*gamma=*/0.5, true);
  EXPECT_EQ(result.candidates.size(), 1u);
}

/// Soundness: every cross-stream tuple whose exact similarity with the
/// probe exceeds gamma must be returned as a candidate (grid pruning may
/// only discard pairs that provably cannot match).
TEST_F(ErGridTest, CandidatesAreSupersetOfTrueMatches) {
  Rng rng(99);
  const std::vector<std::vector<std::string>> pool = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "rest"},
      {"male", "blurred vision", "diabetes", "dietary therapy"},
      {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
      {"male", "fever poor appetite", "flu", "drink more"},
      {"male", "loss of weight thirst", "diabetes", "dietary therapy"},
  };
  std::vector<std::shared_ptr<WindowTuple>> members;
  for (int i = 0; i < 40; ++i) {
    auto wt = MakeTuple(100 + i, /*stream=*/1,
                        pool[rng.NextBounded(pool.size())]);
    members.push_back(wt);
    grid_.Insert(wt.get());
  }
  const double gamma = 2.5;
  for (int p = 0; p < 10; ++p) {
    auto probe =
        MakeTuple(1000 + p, 0, pool[rng.NextBounded(pool.size())]);
    ErGrid::CandidateResult result =
        grid_.Candidates(*probe, gamma, /*topic_constrained=*/false);
    for (const auto& member : members) {
      const double sim =
          InstanceSimilarity(*probe->tuple, 0, *member->tuple, 0);
      if (sim > gamma) {
        EXPECT_NE(std::find(result.candidates.begin(),
                            result.candidates.end(), member.get()),
                  result.candidates.end())
            << "grid pruned a pair with sim " << sim;
      }
    }
    // Accounting: candidates + pruned = all cross-stream tuples.
    EXPECT_EQ(result.candidates.size() + result.topic_pruned +
                  result.sim_pruned,
              members.size());
  }
}

TEST_F(ErGridTest, RemovalUpdatesAggregates) {
  auto diabetic =
      MakeTuple(1, 1, {"male", "blurred vision", "diabetes", "drug therapy"});
  auto flu = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid_.Insert(diabetic.get());
  grid_.Insert(flu.get());
  auto probe = MakeTuple(3, 0, {"female", "cough", "flu", "rest"});
  // Probe is non-topical; only the diabetic member is a viable partner.
  ErGrid::CandidateResult result = grid_.Candidates(*probe, 0.5, true);
  EXPECT_EQ(result.candidates.size(), 1u);

  grid_.Remove(diabetic.get());
  result = grid_.Candidates(*probe, 0.5, true);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.topic_pruned, 1u);
}

TEST_F(ErGridTest, RemoveIsTargetedAndComplete) {
  // Removing a tuple that spans several cells clears every one of them and
  // leaves the other members alone.
  ErGrid grid(world_.repo->num_attributes(), 0.05);
  auto spread = MakeSpreadTuple(1, 1);
  auto plain = MakeTuple(2, 1, {"male", "fever", "flu", "rest"});
  grid.Insert(spread.get());
  ASSERT_GE(grid.num_cells(), 2u);
  grid.Insert(plain.get());
  EXPECT_EQ(grid.num_tuples(), 2u);
  EXPECT_TRUE(grid.Remove(spread.get()));
  EXPECT_EQ(grid.num_tuples(), 1u);
  EXPECT_EQ(grid.num_cells(), 1u);
  EXPECT_FALSE(grid.Remove(spread.get()));  // Already removed.
  EXPECT_TRUE(grid.Remove(plain.get()));
  EXPECT_EQ(grid.num_cells(), 0u);
  EXPECT_EQ(grid.num_tuples(), 0u);
}

TEST_F(ErGridTest, CandidatesAreSortedByRid) {
  const std::vector<std::vector<std::string>> pool = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "rest"},
      {"male", "blurred vision", "diabetes", "dietary therapy"},
      {"male", "fever poor appetite", "flu", "drink more"},
  };
  Rng rng(7);
  std::vector<std::shared_ptr<WindowTuple>> members;
  for (int i = 0; i < 40; ++i) {
    members.push_back(
        MakeTuple(1000 + i, /*stream=*/1, pool[rng.NextBounded(pool.size())]));
  }
  members.push_back(MakeSpreadTuple(2000, 1));
  // Insert in reverse so sortedness cannot fall out of insertion order.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    grid_.Insert(it->get());
  }
  auto probe = MakeTuple(1, 0, {"male", "fever", "flu", "rest"});
  const ErGrid::CandidateResult result =
      grid_.Candidates(*probe, 2.0, /*topic_constrained=*/false);
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_TRUE(std::is_sorted(
      result.candidates.begin(), result.candidates.end(),
      [](const WindowTuple* a, const WindowTuple* b) {
        return a->rid() < b->rid();
      }));
  // Each member is counted once even when it spans several cells.
  EXPECT_EQ(result.candidates.size() + result.topic_pruned +
                result.sim_pruned,
            members.size());
}

/// Brute-force reference for the verdict semantics: a cell passes when the
/// probe's distance lower bound to the union of its members' intervals
/// stays under d - gamma, and a member occupying several cells keeps the
/// most permissive verdict (topic-pruned < sim-pruned < candidate). Cells
/// shared with other tuples widen their bounds, so one member's cells can
/// disagree; only the max-merge reproduces the reference then.
TEST_F(ErGridTest, VerdictsMaxMergeAcrossCells) {
  const double width = 0.05;
  const int d = world_.repo->num_attributes();
  ErGrid grid(d, width);
  std::vector<std::shared_ptr<WindowTuple>> members;
  for (int attr : {1, 2, 3}) {
    for (ValueId first = 0; first < 3; ++first) {
      members.push_back(MakeSpreadTuple(100 + members.size(), /*stream=*/1,
                                        attr, first, /*count=*/3));
    }
  }
  const std::vector<std::vector<std::string>> pool = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "rest"},
      {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
      {"male", "fever poor appetite", "flu", "drink more"},
  };
  for (const auto& texts : pool) {
    members.push_back(MakeTuple(100 + members.size(), 1, texts));
  }
  // Reference cells: members grouped by integer cell coordinates.
  std::map<std::vector<int32_t>, std::vector<const WindowTuple*>> cells;
  for (const auto& wt : members) {
    grid.Insert(wt.get());
    std::set<std::vector<int32_t>> own;
    for (int m = 0; m < wt->tuple->num_instances(); ++m) {
      std::vector<int32_t> key(d);
      for (int k = 0; k < d; ++k) {
        key[k] = static_cast<int32_t>(
            std::floor(wt->tuple->instance_coord(m, k) / width));
      }
      own.insert(key);
    }
    for (const auto& key : own) {
      cells[key].push_back(wt.get());
    }
  }
  ASSERT_EQ(grid.num_cells(), cells.size());

  int split_members = 0;  // members whose cells disagreed on some probe
  for (const auto& texts : pool) {
    auto probe = MakeTuple(1, /*stream=*/0, texts);
    for (double gamma : {0.5, 2.0, 2.5, 3.0, 3.5}) {
      for (bool constrained : {false, true}) {
        std::map<int64_t, int> max_verdict;
        std::map<int64_t, int> min_verdict;
        for (const auto& [key, cell_members] : cells) {
          double lb = 0.0;
          for (int k = 0; k < d; ++k) {
            Interval bounds = Interval::Empty();
            for (const WindowTuple* wt : cell_members) {
              bounds.Union(wt->tuple->pivot_dist_interval(k, 0));
            }
            lb += probe->tuple->pivot_dist_interval(k, 0).MinAbsDiff(bounds);
          }
          for (const WindowTuple* wt : cell_members) {
            const int v =
                constrained && !probe->topic.any && !wt->topic.any ? 0
                : lb < static_cast<double>(d) - gamma               ? 2
                                                                    : 1;
            auto [it, fresh] = max_verdict.emplace(wt->rid(), v);
            it->second = std::max(it->second, v);
            auto [jt, fresh_min] = min_verdict.emplace(wt->rid(), v);
            jt->second = std::min(jt->second, v);
          }
        }
        std::vector<int64_t> want;
        uint64_t want_sim = 0;
        uint64_t want_topic = 0;
        for (const auto& [rid, v] : max_verdict) {
          if (v == 2) {
            want.push_back(rid);
          } else if (v == 1) {
            ++want_sim;
          } else {
            ++want_topic;
          }
          split_members += v != min_verdict[rid] ? 1 : 0;
        }
        const ErGrid::CandidateResult got =
            grid.Candidates(*probe, gamma, constrained);
        std::vector<int64_t> got_rids;
        for (const WindowTuple* wt : got.candidates) {
          got_rids.push_back(wt->rid());
        }
        EXPECT_EQ(got_rids, want) << "gamma=" << gamma;
        EXPECT_EQ(got.sim_pruned, want_sim) << "gamma=" << gamma;
        EXPECT_EQ(got.topic_pruned, want_topic) << "gamma=" << gamma;
      }
    }
  }
  // The pool must actually exercise disagreeing cells.
  EXPECT_GT(split_members, 0);
}

}  // namespace
}  // namespace terids
