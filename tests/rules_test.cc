#include <gtest/gtest.h>

#include "rules/rule.h"
#include "rules/rule_miner.h"
#include "test_util.h"

namespace terids {
namespace {

using testing_util::BruteForceAbsorb;
using testing_util::MakeHealthWorld;
using testing_util::RuleSetDiff;
using testing_util::ToyWorld;

CddRule IntervalRule(int dependent, int det_attr, double lo, double hi,
                     double dep_lo, double dep_hi) {
  CddRule rule;
  rule.dependent = dependent;
  rule.det_mask = 1u << det_attr;
  rule.determinants.emplace_back(det_attr,
                                 AttrConstraint::MakeInterval(lo, hi));
  rule.dep_interval = Interval::Of(dep_lo, dep_hi);
  return rule;
}

TEST(CddRuleTest, ApplicabilityRequiresMissingDependentAndPresentDets) {
  ToyWorld world = MakeHealthWorld();
  CddRule rule = IntervalRule(/*dependent=*/2, /*det=*/1, 0.0, 0.3, 0.0, 0.2);

  Record missing_diag = world.Make(1, {"male", "blurred vision", "-", "x"});
  EXPECT_TRUE(rule.ApplicableTo(missing_diag));

  Record complete = world.Make(2, {"male", "blurred vision", "flu", "x"});
  EXPECT_FALSE(rule.ApplicableTo(complete));  // Dependent not missing.

  Record missing_det = world.Make(3, {"male", "-", "-", "x"});
  EXPECT_FALSE(rule.ApplicableTo(missing_det));  // Determinant missing.
}

TEST(CddRuleTest, IntervalDeterminantSatisfaction) {
  ToyWorld world = MakeHealthWorld();
  // Sample 1 in the toy repo has symptom "loss of weight blurred vision".
  Record r = world.Make(1, {"male", "blurred vision", "-", "x"});
  CddRule tight = IntervalRule(2, 1, 0.0, 0.7, 0.0, 0.2);
  CddRule impossible = IntervalRule(2, 1, 0.0, 0.05, 0.0, 0.2);
  // dist("blurred vision", "loss of weight blurred vision") = 1 - 2/5 = 0.6.
  EXPECT_TRUE(tight.DeterminantsSatisfied(r, *world.repo, 1));
  EXPECT_FALSE(impossible.DeterminantsSatisfied(r, *world.repo, 1));
}

TEST(CddRuleTest, RelaxedEpsMinExcludesTooSimilarPairs) {
  ToyWorld world = MakeHealthWorld();
  Record r = world.Make(1, {"male", "blurred vision", "-", "x"});
  // eps_min = 0.7 > actual distance 0.6: constraint not satisfied. This is
  // the paper's relaxation of eps_min beyond 0.
  CddRule rule = IntervalRule(2, 1, 0.7, 1.0, 0.0, 0.2);
  EXPECT_FALSE(rule.DeterminantsSatisfied(r, *world.repo, 1));
}

TEST(CddRuleTest, ConstantDeterminantRequiresBothSidesEqual) {
  ToyWorld world = MakeHealthWorld();
  const AttributeDomain& gender = world.repo->domain(0);
  ValueId male = kInvalidValueId;
  for (ValueId v = 0; v < gender.size(); ++v) {
    if (gender.text(v) == "male") male = v;
  }
  ASSERT_NE(male, kInvalidValueId);

  CddRule rule;
  rule.dependent = 2;
  rule.det_mask = 1u << 0;
  rule.determinants.emplace_back(0, AttrConstraint::MakeConstant(male));
  rule.dep_interval = Interval::Of(0.0, 0.2);

  Record male_rec = world.Make(1, {"male", "fever", "-", "x"});
  Record female_rec = world.Make(2, {"female", "fever", "-", "x"});
  // Sample 0 is male; sample 2 is female.
  EXPECT_TRUE(rule.DeterminantsSatisfied(male_rec, *world.repo, 0));
  EXPECT_FALSE(rule.DeterminantsSatisfied(female_rec, *world.repo, 0));
  EXPECT_FALSE(rule.DeterminantsSatisfied(male_rec, *world.repo, 2));
}

TEST(CddRuleTest, FamilyClassification) {
  CddRule dd = IntervalRule(2, 1, 0.0, 0.3, 0.0, 0.2);
  EXPECT_TRUE(dd.IsDd());
  EXPECT_FALSE(dd.IsEditingRule());

  CddRule editing;
  editing.dependent = 2;
  editing.det_mask = 1u << 0;
  editing.determinants.emplace_back(0, AttrConstraint::MakeConstant(0));
  editing.dep_interval = Interval::Of(0.0, 0.0);
  EXPECT_FALSE(editing.IsDd());
  EXPECT_TRUE(editing.IsEditingRule());
}

TEST(CddRuleTest, ToStringIsReadable) {
  ToyWorld world = MakeHealthWorld();
  CddRule rule = IntervalRule(2, 1, 0.0, 0.3, 0.0, 0.2);
  const std::string s = rule.ToString(*world.schema);
  EXPECT_NE(s.find("symptom"), std::string::npos);
  EXPECT_NE(s.find("diagnosis"), std::string::npos);
}

// --- Miner tests -------------------------------------------------------

class MinerTest : public ::testing::Test {
 protected:
  MinerTest() : world_(MakeHealthWorld()) {}
  ToyWorld world_;
};

TEST_F(MinerTest, CddRulesAreWellFormed) {
  MinerOptions opts;
  opts.min_support = 2;
  RuleMiner miner(world_.repo.get(), opts);
  std::vector<CddRule> rules = miner.MineCdds();
  ASSERT_FALSE(rules.empty());
  for (const CddRule& rule : rules) {
    EXPECT_GE(rule.dependent, 0);
    EXPECT_LT(rule.dependent, world_.repo->num_attributes());
    EXPECT_NE(rule.det_mask, 0u);
    EXPECT_EQ(rule.det_mask & (1u << rule.dependent), 0u);
    EXPECT_GE(rule.support, opts.min_support);
    EXPECT_FALSE(rule.dep_interval.empty());
    EXPECT_GE(rule.dep_interval.lo, 0.0);
    EXPECT_LE(rule.dep_interval.hi, 1.0);
    // det_mask must agree with the determinant list.
    uint32_t mask = 0;
    for (const auto& [attr, c] : rule.determinants) {
      (void)c;
      mask |= (1u << attr);
    }
    EXPECT_EQ(mask, rule.det_mask);
  }
}

TEST_F(MinerTest, DdRulesHaveClassicForm) {
  MinerOptions opts;
  opts.min_support = 2;
  RuleMiner miner(world_.repo.get(), opts);
  for (const CddRule& rule : miner.MineDds()) {
    EXPECT_TRUE(rule.IsDd());
    for (const auto& [attr, c] : rule.determinants) {
      (void)attr;
      EXPECT_DOUBLE_EQ(c.interval.lo, 0.0);  // eps_min anchored at 0.
    }
    EXPECT_DOUBLE_EQ(rule.dep_interval.lo, 0.0);
  }
}

TEST_F(MinerTest, EditingRulesAreConstantOnly) {
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_const_freq = 2;
  RuleMiner miner(world_.repo.get(), opts);
  for (const CddRule& rule : miner.MineEditingRules()) {
    for (const auto& [attr, c] : rule.determinants) {
      (void)attr;
      EXPECT_EQ(c.kind, AttrConstraint::Kind::kConstant);
    }
    EXPECT_LE(rule.dep_interval.hi, opts.editing_tolerance + 1e-12);
  }
}

TEST_F(MinerTest, MiningIsDeterministic) {
  MinerOptions opts;
  opts.min_support = 2;
  RuleMiner a(world_.repo.get(), opts);
  RuleMiner b(world_.repo.get(), opts);
  std::vector<CddRule> ra = a.MineCdds();
  std::vector<CddRule> rb = b.MineCdds();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].dependent, rb[i].dependent);
    EXPECT_EQ(ra[i].det_mask, rb[i].det_mask);
    EXPECT_EQ(ra[i].dep_interval, rb[i].dep_interval);
  }
}

TEST_F(MinerTest, AbsorbNewSampleWidensViolatedRules) {
  MinerOptions opts;
  opts.min_support = 2;
  RuleMiner miner(world_.repo.get(), opts);
  std::vector<CddRule> rules = miner.MineCdds();
  ASSERT_FALSE(rules.empty());

  // A sample that matches existing determinants but carries an unusual
  // dependent value forces widening of some rule.
  Record oddball = world_.Make(
      3000, {"male", "loss of weight", "zebra fever syndrome", "surgery"});
  ASSERT_TRUE(world_.repo->AddSample(oddball).ok());
  ValuePostings postings(world_.repo.get());
  const int widened = miner.AbsorbNewSample(world_.repo->num_samples() - 1,
                                            &postings, &rules);
  EXPECT_GT(widened, 0);
  for (const CddRule& rule : rules) {
    EXPECT_LE(rule.dep_interval.lo, rule.dep_interval.hi);
  }
}

TEST_F(MinerTest, AbsorbMatchesBruteForceScan) {
  Repository& repo = *world_.repo;
  // Two repository samples with empty token sets (not missing) on symptom
  // and treatment, so pairs of empty sets (distance 0.0) reach both the
  // determinant checks and the dependent distance.
  for (int64_t rid : {2000, 2001}) {
    ASSERT_TRUE(
        repo.AddSample(world_.Make(rid, {"male", "", "diabetes", ""})).ok());
  }
  MinerOptions opts;
  opts.min_support = 2;
  opts.min_const_freq = 2;
  RuleMiner miner(world_.repo.get(), opts);
  std::vector<std::vector<CddRule>> rule_sets = {
      miner.MineCdds(), miner.MineDds(), miner.MineEditingRules()};
  // Hand-written rules for the cases mining may not emit: exact-match
  // intervals that pairs of empty sets satisfy, an interval that admits
  // only disjoint values, a constant next to an interval, and a constant
  // no new sample carries.
  const ValueId male = repo.FindValue(0, world_.Make(0, {"male", "", "", ""})
                                             .values[0]
                                             .tokens);
  ASSERT_NE(male, kInvalidValueId);
  std::vector<CddRule> hand = {
      IntervalRule(/*dependent=*/3, /*det=*/1, 0.0, 0.0, 0.0, 0.1),
      IntervalRule(/*dependent=*/2, /*det=*/3, 0.0, 0.0, 0.0, 0.0),
      IntervalRule(/*dependent=*/1, /*det=*/2, 1.0, 1.0, 0.2, 0.3)};
  CddRule mixed = IntervalRule(/*dependent=*/3, /*det=*/1, 0.0, 0.5, 0.0, 0.1);
  mixed.det_mask |= 1u;
  mixed.determinants.insert(mixed.determinants.begin(),
                            {0, AttrConstraint::MakeConstant(male)});
  hand.push_back(mixed);
  CddRule unused_constant = mixed;
  unused_constant.determinants[0].second =
      AttrConstraint::MakeConstant(repo.domain_size(0) - 1);  // "female".
  hand.push_back(unused_constant);
  rule_sets.push_back(hand);
  for (const std::vector<CddRule>& rules : rule_sets) {
    ASSERT_FALSE(rules.empty());
  }

  // Absorbed one at a time; later samples register new domain values
  // ("zebra", "brand new", "tiredness"), repeat earlier ones or are empty.
  const std::vector<std::vector<std::string>> batch = {
      {"male", "", "diabetes", ""},
      {"male", "loss of weight", "zebra fever", "drug therapy"},
      {"female", "fever cough", "flu", ""},
      {"male", "blurred vision tiredness", "diabetes", "brand new therapy"},
      {"male", "", "", "drug therapy"},
      {"female", "fever cough", "flu", "sleep more"},
  };
  std::vector<std::vector<CddRule>> oracle = rule_sets;
  ValuePostings postings(world_.repo.get());
  int total_widened = 0;
  for (size_t k = 0; k < batch.size(); ++k) {
    const size_t domain_before = repo.domain_size(1) + repo.domain_size(2) +
                                 repo.domain_size(3);
    ASSERT_TRUE(
        repo.AddSample(world_.Make(static_cast<int64_t>(3000 + k), batch[k]))
            .ok());
    if (k == 1 || k == 3) {
      EXPECT_GT(repo.domain_size(1) + repo.domain_size(2) +
                    repo.domain_size(3),
                domain_before);
    }
    const size_t idx = repo.num_samples() - 1;
    for (size_t set = 0; set < rule_sets.size(); ++set) {
      const int got = miner.AbsorbNewSample(idx, &postings, &rule_sets[set]);
      const int want = BruteForceAbsorb(repo, idx, &oracle[set]);
      EXPECT_EQ(got, want) << "sample " << k << " rule set " << set;
      EXPECT_EQ(RuleSetDiff(rule_sets[set], oracle[set]), "")
          << "sample " << k << " rule set " << set;
      total_widened += got;
    }
  }
  EXPECT_GT(total_widened, 0);
  // The exact-match rule on symptom was met only by pairs of empty
  // symptoms.
  EXPECT_GT(rule_sets[3][0].support, 0);
}

}  // namespace
}  // namespace terids
