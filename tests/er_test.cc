#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "er/bounds.h"
#include "er/probability.h"
#include "er/pruning.h"
#include "er/similarity.h"
#include "er/topic.h"
#include "test_util.h"
#include "util/bits.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(SimilarityTest, RecordSimilaritySumsPerAttributeJaccard) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"male", "fever cough", "flu", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  // gender 1 + symptom 0.5 + diagnosis 1 + treatment 1.
  EXPECT_DOUBLE_EQ(RecordSimilarity(a, b), 3.5);
}

TEST(SimilarityTest, MissingAttributesActAsEmptySets) {
  ToyWorld world = MakeHealthWorld();
  Record a = world.Make(1, {"male", "fever", "-", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  EXPECT_DOUBLE_EQ(RecordSimilarity(a, b), 3.0);
}

TEST(TopicQueryTest, UnconstrainedMatchesEverything) {
  TopicQuery topic;
  EXPECT_TRUE(topic.IsUnconstrained());
  EXPECT_TRUE(topic.Matches(TokenSet()));
}

TEST(TopicQueryTest, MatchesKeywordTokens) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"diabetes"});
  Tokenizer tok(world.dict.get());
  EXPECT_TRUE(topic.Matches(tok.TokenizeFrozen("diagnosed with diabetes")));
  EXPECT_FALSE(topic.Matches(tok.TokenizeFrozen("flu and cough")));
}

TEST(TopicQueryTest, UnknownKeywordsNeverMatch) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"nonexistentword"});
  EXPECT_FALSE(topic.IsUnconstrained());
  Tokenizer tok(world.dict.get());
  EXPECT_FALSE(topic.Matches(tok.TokenizeFrozen("male fever diabetes")));
}

TEST(TopicQueryTest, ClassifyFlagsInstancesIndividually) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"diabetes"});
  Record r = world.Make(1, {"male", "blurred vision", "-", "drug therapy"});
  const AttributeDomain& dom = world.repo->domain(2);
  ValueId diabetes = kInvalidValueId;
  ValueId flu = kInvalidValueId;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") diabetes = v;
    if (dom.text(v) == "flu") flu = v;
  }
  ImputedTuple::ImputedAttr ia;
  ia.attr = 2;
  ia.candidates = {{diabetes, 0.6}, {flu, 0.4}};
  ImputedTuple t =
      ImputedTuple::FromImputation(r, world.repo.get(), {ia}, 8);
  TopicQuery::TupleTopic tt = topic.Classify(t);
  EXPECT_TRUE(tt.any);
  EXPECT_FALSE(tt.all);
  EXPECT_TRUE(tt.instance_matches[0]);   // diabetes instance
  EXPECT_FALSE(tt.instance_matches[1]);  // flu instance
  EXPECT_NE(tt.possible_mask, 0u);
}

// ---------------------------------------------------------------------
// Property tests: every bound must dominate the exact quantity it bounds.
// ---------------------------------------------------------------------

class BoundsPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  BoundsPropertyTest() : world_(MakeHealthWorld()) {}

  /// Random (possibly imputed) tuple over the toy repository.
  ImputedTuple RandomTuple(Rng* rng, int64_t rid) {
    const std::vector<std::vector<std::string>> pool = {
        {"male", "loss of weight", "diabetes", "drug therapy"},
        {"female", "fever cough", "flu", "rest"},
        {"male", "blurred vision", "diabetes", "dietary therapy"},
        {"female", "red eye shed tears", "conjunctivitis", "eye drop"},
        {"male", "fever poor appetite", "flu", "drink more"},
    };
    std::vector<std::string> texts = pool[rng->NextBounded(pool.size())];
    std::vector<ImputedTuple::ImputedAttr> imputed;
    // Randomly knock out one attribute and impute it with 1-4 candidates.
    if (rng->NextBool(0.7)) {
      const int attr = static_cast<int>(rng->NextBounded(4));
      texts[attr] = "-";
      const AttributeDomain& dom = world_.repo->domain(attr);
      ImputedTuple::ImputedAttr ia;
      ia.attr = attr;
      const int n = 1 + static_cast<int>(rng->NextBounded(4));
      double remaining = 1.0;
      for (int c = 0; c < n; ++c) {
        const double p = (c == n - 1) ? remaining : remaining * 0.5;
        ia.candidates.push_back(
            {static_cast<ValueId>(rng->NextBounded(dom.size())), p});
        remaining -= p;
      }
      // Dedup candidate vids (cross product requires distinct choices not
      // to collapse probabilities, but duplicates are legal; keep as-is).
      imputed.push_back(std::move(ia));
    }
    Record r = world_.Make(rid, texts);
    if (imputed.empty()) {
      return ImputedTuple::FromComplete(r, world_.repo.get());
    }
    return ImputedTuple::FromImputation(r, world_.repo.get(),
                                        std::move(imputed), 8);
  }

  ToyWorld world_;
};

TEST_P(BoundsPropertyTest, SimilarityUpperBoundsDominateAllInstancePairs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    const double ub_size = UbSimTokenSize(a, b);
    const double ub_pivot = UbSimPivot(a, b);
    const double ub = UbSim(a, b);
    EXPECT_LE(ub, ub_size + 1e-12);
    EXPECT_LE(ub, ub_pivot + 1e-12);
    for (int m = 0; m < a.num_instances(); ++m) {
      for (int mp = 0; mp < b.num_instances(); ++mp) {
        const double sim = InstanceSimilarity(a, m, b, mp);
        EXPECT_LE(sim, ub_size + 1e-9) << "Lemma 4.1 violated";
        EXPECT_LE(sim, ub_pivot + 1e-9) << "Lemma 4.2 violated";
      }
    }
  }
}

TEST_P(BoundsPropertyTest, PaleyZygmundBoundDominatesExactProbability) {
  Rng rng(GetParam() * 97 + 11);
  TopicQuery topic;  // Unconstrained: bound must hold even for 𝜛 == true.
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    for (double gamma : {1.0, 2.0, 2.5, 3.0, 3.5}) {
      const double ub = UbProbPaleyZygmund(a, b, gamma);
      const double exact = ExactProbability(a, ta, b, tb, gamma);
      EXPECT_GE(ub, exact - 1e-9)
          << "Lemma 4.3 violated at gamma=" << gamma;
    }
  }
}

TEST_P(BoundsPropertyTest, RefineAgreesWithExactWhenNotTerminatedEarly) {
  Rng rng(GetParam() * 31 + 7);
  TopicQuery topic;
  for (int trial = 0; trial < 60; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    const double gamma = 2.0;
    const double alpha = 0.5;
    const double exact = ExactProbability(a, ta, b, tb, gamma);
    RefineResult refine = RefineProbability(a, ta, b, tb, gamma, alpha);
    // Theorem 4.4: early termination must never flip the alpha decision.
    EXPECT_EQ(refine.early_accepted || (!refine.early_pruned &&
                                        refine.probability > alpha),
              exact > alpha);
    if (!refine.early_accepted && !refine.early_pruned) {
      EXPECT_NEAR(refine.probability, exact, 1e-12);
    }
  }
}

TEST_P(BoundsPropertyTest, EvaluatePairNeverPrunesARealMatch) {
  Rng rng(GetParam() * 53 + 29);
  ToyWorld& world = world_;
  TopicQuery topic(*world.dict, {"diabetes", "flu"});
  PruneStats stats;
  for (int trial = 0; trial < 80; ++trial) {
    ImputedTuple a = RandomTuple(&rng, 2 * trial);
    ImputedTuple b = RandomTuple(&rng, 2 * trial + 1);
    TopicQuery::TupleTopic ta = topic.Classify(a);
    TopicQuery::TupleTopic tb = topic.Classify(b);
    const double gamma = 2.0;
    const double alpha = 0.4;
    const double exact = ExactProbability(a, ta, b, tb, gamma);
    const PairEvaluation eval = EvaluatePair(a, ta, b, tb, gamma, alpha);
    stats.Record(eval.outcome);
    EXPECT_EQ(eval.matched(), exact > alpha)
        << "pruning changed the decision (exact=" << exact << ")";
    if (eval.matched()) {
      EXPECT_GT(eval.probability, alpha);
    }
  }
  EXPECT_EQ(stats.total_pairs, 80u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RefineTest, TopicGatesProbability) {
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"conjunctivitis"});
  Record a = world.Make(1, {"male", "fever", "flu", "rest"});
  Record b = world.Make(2, {"male", "fever", "flu", "rest"});
  ImputedTuple ta = ImputedTuple::FromComplete(a, world.repo.get());
  ImputedTuple tb = ImputedTuple::FromComplete(b, world.repo.get());
  // Identical tuples (sim = 4) but no topical keyword: probability 0.
  EXPECT_DOUBLE_EQ(ExactProbability(ta, topic.Classify(ta), tb,
                                    topic.Classify(tb), 2.0),
                   0.0);
}

TEST(PruningTest, BoundsPassCountsLikeTheRefinementKernel) {
  // Degrade-mode evaluation runs pass 1 of the signature filter, so a
  // single-instance pair reaching it must report the same counters as
  // InstanceSimilarityExceeds: two probes per attribute, and a saturated
  // probe for each signature with more than 48 of its 64 bits set.
  ToyWorld world = MakeHealthWorld();
  TopicQuery topic(*world.dict, {"diabetes"});
  std::string long_symptom;
  for (int w = 0; w < 300; ++w) {
    long_symptom += "w" + std::to_string(w) + " ";
  }
  const std::vector<std::string> texts = {"male", long_symptom, "diabetes",
                                          "drug therapy"};
  ImputedTuple a =
      ImputedTuple::FromComplete(world.Make(1, texts), world.repo.get());
  ImputedTuple b =
      ImputedTuple::FromComplete(world.Make(2, texts), world.repo.get());
  ASSERT_EQ(a.num_instances(), 1);
  ASSERT_EQ(b.num_instances(), 1);
  ASSERT_GT(PopCount64(a.instance_token_view(0, 1).sig), 48);

  const double gamma = 2.0;
  const PairEvaluation eval = EvaluatePairBounds(
      a, topic.Classify(a), b, topic.Classify(b), gamma, /*alpha=*/0.4);
  // Identical tuples clear every bound, so the pair reaches the signature
  // pass and survives it undecided.
  EXPECT_EQ(eval.outcome, PairOutcome::kDeferred);
  const int d = a.num_attributes();
  EXPECT_EQ(eval.sig_probes, 2u * static_cast<uint64_t>(d));
  EXPECT_EQ(eval.sig_saturated, 2u);
  EXPECT_EQ(eval.sig_rejects, 0u);

  SigFilterCounters kernel;
  EXPECT_TRUE(InstanceSimilarityExceeds(a, 0, b, 0, gamma, &kernel));
  EXPECT_EQ(eval.sig_probes, kernel.probes);
  EXPECT_EQ(eval.sig_saturated, kernel.saturated);
  EXPECT_EQ(eval.sig_rejects, kernel.rejects);
}

}  // namespace
}  // namespace terids
