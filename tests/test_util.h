#ifndef TERIDS_TESTS_TEST_UTIL_H_
#define TERIDS_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pivot/pivot_selector.h"
#include "repo/repository.h"
#include "rules/rule.h"
#include "text/token_dict.h"
#include "text/tokenizer.h"
#include "tuple/record.h"
#include "tuple/schema.h"

namespace terids {
namespace testing_util {

/// Builds a record from raw attribute texts; "-" marks a missing value
/// (the paper's notation).
inline Record MakeRecord(const Schema& schema, TokenDict* dict, int64_t rid,
                         const std::vector<std::string>& texts) {
  Tokenizer tok(dict);
  Record r;
  r.rid = rid;
  r.values.resize(schema.num_attributes());
  for (int x = 0; x < schema.num_attributes(); ++x) {
    if (texts[x] == "-") {
      r.values[x] = AttrValue::Missing();
    } else {
      r.values[x].text = texts[x];
      r.values[x].tokens = tok.Tokenize(texts[x]);
      r.values[x].missing = false;
    }
  }
  return r;
}

/// A self-contained toy world: schema, dictionary, repository with samples
/// and attached pivots. Mirrors the health-community example of the paper's
/// introduction (Table 1).
struct ToyWorld {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<TokenDict> dict;
  std::unique_ptr<Repository> repo;

  Record Make(int64_t rid, const std::vector<std::string>& texts) const {
    return MakeRecord(*schema, dict.get(), rid, texts);
  }
};

inline ToyWorld MakeHealthWorld() {
  ToyWorld world;
  world.schema = std::make_unique<Schema>(std::vector<std::string>{
      "gender", "symptom", "diagnosis", "treatment"});
  world.dict = std::make_unique<TokenDict>();
  world.repo =
      std::make_unique<Repository>(world.schema.get(), world.dict.get());

  const std::vector<std::vector<std::string>> samples = {
      {"male", "loss of weight", "diabetes", "dietary therapy drug therapy"},
      {"male", "loss of weight blurred vision", "diabetes", "drug therapy"},
      {"female", "fever low spirit cough", "pneumonia", "antibiotics rest"},
      {"male", "fever poor appetite cough", "flu", "drink more sleep more"},
      {"female", "red eye itchy shed tears", "conjunctivitis", "eye drop"},
      {"male", "blurred vision", "diabetes", "drug therapy"},
      {"female", "fever cough", "flu", "sleep more"},
      {"male", "loss of weight thirst", "diabetes", "dietary therapy"},
      {"female", "eye itchy red eye", "conjunctivitis", "eye drop rest"},
      {"male", "fever cough headache", "flu", "drink more"},
  };
  for (size_t i = 0; i < samples.size(); ++i) {
    Record r = world.Make(static_cast<int64_t>(1000 + i), samples[i]);
    TERIDS_CHECK(world.repo->AddSample(r).ok());
  }
  PivotOptions popts;
  popts.cnt_max = 2;
  PivotSelector selector(world.repo.get(), popts);
  world.repo->AttachPivots(selector.SelectAll());
  return world;
}

/// Brute-force oracle of RuleMiner::AbsorbNewSample: every rule against
/// every sample present when `sample_idx` was added (those before it), with
/// a token merge per determinant check and per dependent distance.
inline int BruteForceAbsorb(const Repository& repo, size_t sample_idx,
                            std::vector<CddRule>* rules) {
  const Record& s_new = repo.sample(sample_idx);
  int widened = 0;
  for (CddRule& rule : *rules) {
    bool rule_widened = false;
    for (size_t other = 0; other < sample_idx; ++other) {
      if (!rule.DeterminantsSatisfied(s_new, repo, other)) {
        continue;
      }
      const double dep_dist =
          JaccardDistance(s_new.values[rule.dependent].tokens,
                          repo.sample(other).values[rule.dependent].tokens);
      if (!rule.dep_interval.Contains(dep_dist)) {
        rule.dep_interval.Cover(dep_dist);
        rule_widened = true;
      }
      ++rule.support;
    }
    if (rule_widened) {
      ++widened;
    }
  }
  return widened;
}

/// The first difference between two rule sets (determinants, dependent
/// interval endpoints compared with ==, support), or "" when they agree.
inline std::string RuleSetDiff(const std::vector<CddRule>& a,
                               const std::vector<CddRule>& b) {
  if (a.size() != b.size()) {
    return "rule counts differ";
  }
  char buf[160];
  for (size_t i = 0; i < a.size(); ++i) {
    const CddRule& x = a[i];
    const CddRule& y = b[i];
    bool same_dets = x.determinants.size() == y.determinants.size();
    for (size_t k = 0; same_dets && k < x.determinants.size(); ++k) {
      const AttrConstraint& cx = x.determinants[k].second;
      const AttrConstraint& cy = y.determinants[k].second;
      same_dets = x.determinants[k].first == y.determinants[k].first &&
                  cx.kind == cy.kind && cx.interval == cy.interval &&
                  cx.constant_vid == cy.constant_vid;
    }
    if (x.dependent != y.dependent || x.det_mask != y.det_mask ||
        !same_dets || !(x.dep_interval == y.dep_interval) ||
        x.support != y.support) {
      std::snprintf(buf, sizeof(buf),
                    "rule %zu: I=[%.17g,%.17g] sup=%d vs I=[%.17g,%.17g] "
                    "sup=%d",
                    i, x.dep_interval.lo, x.dep_interval.hi, x.support,
                    y.dep_interval.lo, y.dep_interval.hi, y.support);
      return buf;
    }
  }
  return "";
}

}  // namespace testing_util
}  // namespace terids

#endif  // TERIDS_TESTS_TEST_UTIL_H_
