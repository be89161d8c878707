#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "repo/repository.h"
#include "repo/value_postings.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

TEST(AttributeDomainTest, DeduplicatesByTokenSet) {
  ToyWorld world = MakeHealthWorld();
  // "diabetes" appears in several samples but the domain holds it once.
  const AttributeDomain& dom = world.repo->domain(2);
  int diabetes_count = 0;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") ++diabetes_count;
  }
  EXPECT_EQ(diabetes_count, 1);
}

TEST(AttributeDomainTest, FrequencyCountsSamples) {
  ToyWorld world = MakeHealthWorld();
  const AttributeDomain& dom = world.repo->domain(2);
  ValueId diabetes = kInvalidValueId;
  for (ValueId v = 0; v < dom.size(); ++v) {
    if (dom.text(v) == "diabetes") diabetes = v;
  }
  ASSERT_NE(diabetes, kInvalidValueId);
  EXPECT_EQ(dom.frequency(diabetes), 4);  // 4 diabetes samples in the toy set.
}

TEST(RepositoryTest, RejectsIncompleteSamples) {
  ToyWorld world = MakeHealthWorld();
  Record bad = world.Make(99, {"male", "-", "flu", "rest"});
  EXPECT_FALSE(world.repo->AddSample(bad).ok());
}

TEST(RepositoryTest, RejectsWrongArity) {
  ToyWorld world = MakeHealthWorld();
  Record bad;
  bad.rid = 99;
  bad.values.resize(2);
  EXPECT_FALSE(world.repo->AddSample(bad).ok());
}

TEST(RepositoryTest, SampleValueIdsConsistentWithDomains) {
  ToyWorld world = MakeHealthWorld();
  for (size_t i = 0; i < world.repo->num_samples(); ++i) {
    for (int x = 0; x < world.repo->num_attributes(); ++x) {
      const ValueId vid = world.repo->sample_value_id(i, x);
      EXPECT_TRUE(world.repo->domain(x).tokens(vid) ==
                  world.repo->sample(i).values[x].tokens);
    }
  }
}

TEST(RepositoryTest, PivotDistanceMatchesDirectComputation) {
  ToyWorld world = MakeHealthWorld();
  for (int x = 0; x < world.repo->num_attributes(); ++x) {
    const AttributeDomain& dom = world.repo->domain(x);
    for (int a = 0; a < world.repo->num_pivots(x); ++a) {
      for (ValueId v = 0; v < dom.size(); ++v) {
        EXPECT_DOUBLE_EQ(
            world.repo->pivot_distance(x, a, v),
            JaccardDistance(dom.tokens(v), world.repo->pivot_tokens(x, a)));
      }
    }
  }
}

TEST(RepositoryTest, ValuesInCoordRangeMatchesBruteForce) {
  ToyWorld world = MakeHealthWorld();
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int x =
        static_cast<int>(rng.NextBounded(world.repo->num_attributes()));
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const Interval band = Interval::Of(lo, hi);
    std::vector<ValueId> got = world.repo->ValuesInCoordRange(x, band);
    std::sort(got.begin(), got.end());
    std::vector<ValueId> want;
    for (ValueId v = 0; v < world.repo->domain(x).size(); ++v) {
      if (band.Contains(world.repo->coord(x, v))) {
        want.push_back(v);
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(RepositoryTest, RegisterValueExtendsPivotTables) {
  ToyWorld world = MakeHealthWorld();
  const size_t before = world.repo->domain(2).size();
  TokenDict* dict = world.dict.get();
  Tokenizer tok(dict);
  TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId vid = world.repo->RegisterValue(2, tokens, "hypertension");
  EXPECT_EQ(world.repo->domain(2).size(), before + 1);
  // Pivot distances are immediately queryable for the new value.
  EXPECT_DOUBLE_EQ(world.repo->pivot_distance(2, 0, vid),
                   JaccardDistance(tokens, world.repo->pivot_tokens(2, 0)));
  // And the value is findable through the coordinate range scan.
  const double c = world.repo->coord(2, vid);
  std::vector<ValueId> got = world.repo->ValuesInCoordRange(
      2, Interval::Of(c - 1e-9, c + 1e-9));
  EXPECT_NE(std::find(got.begin(), got.end(), vid), got.end());
}

TEST(RepositoryTest, RegisterValueIsIdempotentForKnownTokens) {
  ToyWorld world = MakeHealthWorld();
  const AttributeDomain& dom = world.repo->domain(2);
  const size_t before = dom.size();
  const TokenSet existing = dom.tokens(0);
  const ValueId vid = world.repo->RegisterValue(2, existing, "dup");
  EXPECT_EQ(vid, 0u);
  EXPECT_EQ(dom.size(), before);
}

TEST(RepositoryTest, AddSampleAfterPivotsKeepsTablesConsistent) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(
      2000, {"female", "sore throat fever", "strep throat", "antibiotics"});
  ASSERT_TRUE(world.repo->AddSample(r).ok());
  const size_t i = world.repo->num_samples() - 1;
  for (int x = 0; x < world.repo->num_attributes(); ++x) {
    const ValueId vid = world.repo->sample_value_id(i, x);
    EXPECT_DOUBLE_EQ(
        world.repo->coord(x, vid),
        JaccardDistance(r.values[x].tokens, world.repo->pivot_tokens(x, 0)));
  }
}

TEST(AttributeDomainTest, BumpFrequencyOutOfRangeIsChecked) {
  AttributeDomain dom;
  // Regression: BumpFrequency was the only accessor without a bounds
  // guard — an out-of-range ValueId was silent UB on frequencies_[id].
  EXPECT_DEATH(dom.BumpFrequency(0), "frequencies_");
  TokenSet one = TokenSet::FromTokens({1, 2});
  const ValueId vid = dom.FindOrAdd(one, "one two");
  dom.BumpFrequency(vid);
  EXPECT_EQ(dom.frequency(vid), 1);
  EXPECT_DEATH(dom.BumpFrequency(vid + 1), "frequencies_");
}

// --- Dynamic repository: RegisterValue after AttachPivots ----------------

TEST(RepositoryTest, IncrementalInsertsKeepCoordListOrdered) {
  ToyWorld world = MakeHealthWorld();
  Tokenizer tok(world.dict.get());
  const std::vector<std::string> texts = {
      "hypertension", "severe migraine", "fever",
      "loss of weight thirst fatigue", "eye drop rest sleep"};
  for (const std::string& text : texts) {
    world.repo->RegisterValue(2, tok.Tokenize(text), text);
  }
  // The full-range scan surfaces the maintained list; it must stay sorted
  // by (coordinate, ValueId) after every incremental insert.
  const std::vector<ValueId> all =
      world.repo->ValuesInCoordRange(2, Interval::Of(0.0, 1.0));
  ASSERT_EQ(all.size(), world.repo->domain_size(2));
  for (size_t i = 1; i < all.size(); ++i) {
    const auto prev = std::make_pair(world.repo->coord(2, all[i - 1]),
                                     all[i - 1]);
    const auto cur = std::make_pair(world.repo->coord(2, all[i]), all[i]);
    EXPECT_LT(prev, cur) << "position " << i;
  }
}

TEST(RepositoryTest, DuplicateRegisterValueAfterPivotsIsANoOp) {
  ToyWorld world = MakeHealthWorld();
  Tokenizer tok(world.dict.get());
  const TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId vid = world.repo->RegisterValue(2, tokens, "hypertension");
  const size_t size = world.repo->domain_size(2);
  const std::vector<ValueId> scan =
      world.repo->ValuesInCoordRange(2, Interval::Of(0.0, 1.0));
  // Re-registering the same token set (even under a different display
  // text) must not grow the domain, the pivot tables, or the coord list.
  EXPECT_EQ(world.repo->RegisterValue(2, tokens, "other text"), vid);
  EXPECT_EQ(world.repo->domain_size(2), size);
  EXPECT_EQ(world.repo->ValuesInCoordRange(2, Interval::Of(0.0, 1.0)), scan);
}

TEST(RepositoryTest, CoordRangeEndpointsAreInclusiveHits) {
  ToyWorld world = MakeHealthWorld();
  Tokenizer tok(world.dict.get());
  const TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId vid = world.repo->RegisterValue(2, tokens, "hypertension");
  const double c = world.repo->coord(2, vid);

  auto contains = [&](const Interval& band) {
    const std::vector<ValueId> got = world.repo->ValuesInCoordRange(2, band);
    return std::find(got.begin(), got.end(), vid) != got.end();
  };
  // The value's exact coordinate at either endpoint is a hit...
  EXPECT_TRUE(contains(Interval::Of(c, c)));
  EXPECT_TRUE(contains(Interval::Of(0.0, c)));   // hit exactly at hi
  EXPECT_TRUE(contains(Interval::Of(c, 1.0)));   // hit exactly at lo
  // ...and one ulp past either endpoint is a miss.
  const double below = std::nextafter(c, -1.0);
  const double above = std::nextafter(c, 2.0);
  EXPECT_FALSE(contains(Interval::Of(0.0, below)));
  EXPECT_FALSE(contains(Interval::Of(above, 1.0)));
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// A random token set over a 40-token vocabulary with Zipf-skewed token
/// frequencies: a few tokens land in most sets, most in few. Sizes run
/// 0..6, so empty sets occur.
TokenSet RandomTokens(Rng* rng) {
  const int n = static_cast<int>(rng->NextBounded(7));
  std::vector<Token> tokens;
  for (int i = 0; i < n; ++i) {
    tokens.push_back(static_cast<Token>(rng->NextZipf(40, 1.1)));
  }
  return TokenSet::FromTokens(std::move(tokens));
}

/// Every value's posting-count distance to `query` equals JaccardDistance
/// bit for bit, and the hits are exactly the values below distance 1.0.
void ExpectCountsMatchJaccard(const Repository& repo, int attr,
                              ValuePostings* postings, const TokenSet& query) {
  TokenOverlaps overlaps;
  postings->Count(attr, query, &overlaps);
  std::vector<ValueId> hits = overlaps.hits();
  std::sort(hits.begin(), hits.end());
  std::vector<ValueId> near;
  for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
    const double want = JaccardDistance(query, repo.value_tokens(attr, v));
    EXPECT_EQ(Bits(overlaps.Distance(v)), Bits(want))
        << "attr " << attr << " value " << v << " query size " << query.size();
    if (want < 1.0) {
      near.push_back(v);
    }
  }
  EXPECT_EQ(hits, near) << "attr " << attr << " query size " << query.size();
}

TEST(ValuePostingsTest, CountDistancesEqualJaccardAcrossGrowth) {
  ToyWorld world = MakeHealthWorld();
  Repository& repo = *world.repo;
  Rng rng(7);
  const int attrs[] = {1, 3};
  for (int attr : attrs) {
    repo.RegisterValue(attr, TokenSet(), "");
    for (int i = 0; i < 60; ++i) {
      repo.RegisterValue(attr, RandomTokens(&rng), "random");
    }
  }
  ValuePostings postings(world.repo.get());
  auto check_all = [&] {
    for (int attr : attrs) {
      ExpectCountsMatchJaccard(repo, attr, &postings, TokenSet());
      for (ValueId v = 0; v < repo.domain_size(attr); ++v) {
        ExpectCountsMatchJaccard(repo, attr, &postings,
                                 repo.value_tokens(attr, v));
      }
      for (int q = 0; q < 40; ++q) {
        ExpectCountsMatchJaccard(repo, attr, &postings, RandomTokens(&rng));
      }
    }
  };
  check_all();
  // The domain grows after the postings were built: new values, some with
  // tokens the postings have never seen, are picked up by the next Count.
  const size_t before = repo.domain_size(3);
  for (int i = 0; i < 30; ++i) {
    std::vector<Token> fresh = {static_cast<Token>(100 + i % 7),
                                static_cast<Token>(rng.NextZipf(40, 1.1))};
    repo.RegisterValue(3, TokenSet::FromTokens(std::move(fresh)), "fresh");
    repo.RegisterValue(1, RandomTokens(&rng), "random");
  }
  ASSERT_GT(repo.domain_size(3), before);
  check_all();
}

}  // namespace
}  // namespace terids
