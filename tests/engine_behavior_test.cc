// Behavioral tests of engine-level guarantees that the integration suite
// does not pin down: n > 2 streams, multi-instance grid residency,
// determinism, and refinement edge cases.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/terids_engine.h"
#include "er/probability.h"
#include "rules/rule_miner.h"
#include "synopsis/er_grid.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

class EngineBehaviorTest : public ::testing::Test {
 protected:
  EngineBehaviorTest() : world_(MakeHealthWorld()) {
    MinerOptions opts;
    opts.min_support = 2;
    opts.min_const_freq = 2;
    RuleMiner miner(world_.repo.get(), opts);
    rules_ = miner.MineCdds();
    config_.keywords = {"diabetes"};
    config_.gamma = 2.2;
    config_.alpha = 0.4;
    config_.window_size = 16;
  }

  Record Post(int64_t rid, int stream,
              const std::vector<std::string>& texts) {
    Record r = world_.Make(rid, texts);
    r.stream_id = stream;
    return r;
  }

  ToyWorld world_;
  std::vector<CddRule> rules_;
  EngineConfig config_;
};

TEST_F(EngineBehaviorTest, ThreeStreamsMatchAcrossAnyTwo) {
  TerIdsEngine engine(world_.repo.get(), config_, /*num_streams=*/3, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome second = engine.ProcessArrival(Post(2, 1, diabetic));
  EXPECT_EQ(second.new_matches.size(), 1u);  // streams 0-1
  ArrivalOutcome third = engine.ProcessArrival(Post(3, 2, diabetic));
  // Stream 2's tuple matches both earlier tuples (0-2 and 1-2 pairs).
  EXPECT_EQ(third.new_matches.size(), 2u);
  EXPECT_EQ(engine.results().size(), 3u);
}

TEST_F(EngineBehaviorTest, SameStreamDuplicatesNeverPair) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  ArrivalOutcome dup = engine.ProcessArrival(Post(2, 0, diabetic));
  EXPECT_TRUE(dup.new_matches.empty());
}

TEST_F(EngineBehaviorTest, RepeatedRunsAreDeterministic) {
  std::vector<std::pair<uint64_t, size_t>> signatures;
  for (int run = 0; run < 2; ++run) {
    TerIdsEngine engine(world_.repo.get(), config_, 2, rules_);
    const std::vector<std::vector<std::string>> posts = {
        {"male", "loss of weight", "diabetes", "drug therapy"},
        {"male", "blurred vision", "-", "-"},
        {"female", "fever cough", "flu", "rest"},
        {"male", "loss of weight thirst", "-", "dietary therapy"},
    };
    size_t matches = 0;
    for (size_t i = 0; i < posts.size(); ++i) {
      matches += engine
                     .ProcessArrival(Post(static_cast<int64_t>(i),
                                          static_cast<int>(i % 2), posts[i]))
                     .new_matches.size();
    }
    signatures.emplace_back(engine.cumulative_stats().total_pairs, matches);
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineBehaviorTest, ImputedTupleOccupiesMultipleGridCells) {
  // An imputed tuple whose candidate values have spread-out pivot
  // coordinates must be inserted into several cells and fully removed.
  ErGrid grid(world_.repo->num_attributes(), 0.05);
  TopicQuery topic(*world_.dict, {"diabetes"});
  Record r = world_.Make(1, {"male", "blurred vision", "-", "drug therapy"});
  r.stream_id = 0;
  const AttributeDomain& dom = world_.repo->domain(2);
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  for (ValueId v = 0; v < dom.size() && v < 5; ++v) {
    ia.candidates.push_back({v, 1.0 / 5});
  }
  auto wt = std::make_shared<WindowTuple>();
  wt->tuple = std::make_shared<const ImputedTuple>(
      ImputedTuple::FromImputation(r, world_.repo.get(), {ia}, 16));
  wt->topic = topic.Classify(*wt->tuple);

  grid.Insert(wt.get());
  EXPECT_GE(grid.num_cells(), 2u);
  EXPECT_TRUE(grid.Remove(wt.get()));
  EXPECT_EQ(grid.num_cells(), 0u);
  EXPECT_EQ(grid.num_tuples(), 0u);
}

TEST_F(EngineBehaviorTest, EarlyAcceptedRefinementStillExceedsAlpha) {
  TopicQuery topic;  // unconstrained
  Record a = world_.Make(1, {"male", "fever", "flu", "rest"});
  Record b = world_.Make(2, {"male", "fever", "flu", "rest"});
  ImputedTuple ta = ImputedTuple::FromComplete(a, world_.repo.get());
  ImputedTuple tb = ImputedTuple::FromComplete(b, world_.repo.get());
  RefineResult refine = RefineProbability(ta, topic.Classify(ta), tb,
                                          topic.Classify(tb), 2.0, 0.5);
  EXPECT_TRUE(refine.early_accepted);
  EXPECT_GT(refine.probability, 0.5);
  EXPECT_EQ(refine.pairs_evaluated, 1);
}

TEST_F(EngineBehaviorTest, WindowSizeOneStillWorks) {
  EngineConfig config = config_;
  config.window_size = 1;
  TerIdsEngine engine(world_.repo.get(), config, 2, rules_);
  const std::vector<std::string> diabetic = {
      "male", "loss of weight", "diabetes", "drug therapy"};
  engine.ProcessArrival(Post(1, 0, diabetic));
  EXPECT_EQ(engine.ProcessArrival(Post(2, 1, diabetic)).new_matches.size(),
            1u);
  // A new stream-0 arrival evicts rid 1 and its pair.
  engine.ProcessArrival(Post(3, 0, {"female", "fever cough", "flu", "rest"}));
  EXPECT_FALSE(engine.results().Contains(1, 2));
}

TEST_F(EngineBehaviorTest, SigSaturationCountersTrackFilterWork) {
  // The sig_* PruneStats counters are filter observability: zero with the
  // filter off; with it on, sig_probes counts the popcount probes of the
  // refined pairs and sig_saturated is a subset of them. Outcome counters
  // never move.
  const std::vector<std::vector<std::string>> posts = {
      {"male", "loss of weight", "diabetes", "drug therapy"},
      {"male", "loss of weight thirst", "diabetes", "drug therapy"},
      {"male", "blurred vision", "-", "drug therapy"},
      {"female", "loss of weight", "diabetes", "dietary therapy"},
      {"male", "fever cough headache", "flu", "drink more"},
      {"male", "loss of weight", "diabetes", "-"},
  };
  auto run = [&](bool sigfilter) {
    EngineConfig config = config_;
    config.signature_filter = sigfilter;
    TerIdsEngine engine(world_.repo.get(), config, 2, rules_);
    for (size_t i = 0; i < posts.size(); ++i) {
      engine.ProcessArrival(
          Post(static_cast<int64_t>(i), static_cast<int>(i % 2), posts[i]));
    }
    return engine.cumulative_stats();
  };

  const PruneStats off = run(false);
  EXPECT_EQ(off.sig_probes, 0u);
  EXPECT_EQ(off.sig_saturated, 0u);
  EXPECT_EQ(off.sig_rejects, 0u);
  EXPECT_DOUBLE_EQ(off.SigSaturatedPct(), 0.0);
  EXPECT_GT(off.refined, 0u);  // the stream must actually refine something

  const PruneStats on = run(true);
  EXPECT_GT(on.sig_probes, 0u);
  EXPECT_LE(on.sig_saturated, on.sig_probes);
  EXPECT_GE(on.SigSaturatedPct(), 0.0);
  EXPECT_LE(on.SigSaturatedPct(), 100.0);
  EXPECT_EQ(on.total_pairs, off.total_pairs);
  EXPECT_EQ(on.topic_pruned, off.topic_pruned);
  EXPECT_EQ(on.sim_ub_pruned, off.sim_ub_pruned);
  EXPECT_EQ(on.prob_ub_pruned, off.prob_ub_pruned);
  EXPECT_EQ(on.instance_pruned, off.instance_pruned);
  EXPECT_EQ(on.refined, off.refined);
  EXPECT_EQ(on.matched, off.matched);
}

TEST_F(EngineBehaviorTest, NoRulesMeansUnimputedButStillRunning) {
  TerIdsEngine engine(world_.repo.get(), config_, 2, /*rules=*/{});
  Record incomplete = Post(1, 0, {"male", "loss of weight", "-", "-"});
  ArrivalOutcome outcome = engine.ProcessArrival(incomplete);
  EXPECT_TRUE(outcome.new_matches.empty());
  // The tuple is in the window as a single empty-attribute instance.
  EXPECT_EQ(engine.window(0).size(), 1u);
}

}  // namespace
}  // namespace terids
