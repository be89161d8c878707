// Integration tests: full pipelines over generated incomplete streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "core/baseline_engines.h"
#include "core/pipeline.h"
#include "core/terids_engine.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "imputation/rule_based_imputer.h"
#include "stream/stream_driver.h"
#include "test_util.h"

namespace terids {
namespace {

ExperimentParams SmallParams() {
  ExperimentParams params;
  params.scale = 0.06;
  params.w = 60;
  params.max_arrivals = 260;
  params.xi = 0.3;
  params.m = 1;
  return params;
}

/// A TerIdsEngine whose imputation step a test can call directly.
class ImputeProbe : public TerIdsEngine {
 public:
  using TerIdsEngine::TerIdsEngine;
  std::vector<ImputedTuple::ImputedAttr> ImputeOnly(const Record& r) {
    return Impute(r, ProbeCoords::Compute(r, *repo_), nullptr);
  }
};

bool SameImputation(const std::vector<ImputedTuple::ImputedAttr>& a,
                    const std::vector<ImputedTuple::ImputedAttr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].attr != b[i].attr ||
        a[i].candidates.size() != b[i].candidates.size()) {
      return false;
    }
    for (size_t c = 0; c < a[i].candidates.size(); ++c) {
      if (a[i].candidates[c].vid != b[i].candidates[c].vid ||
          a[i].candidates[c].prob != b[i].candidates[c].prob) {
        return false;
      }
    }
  }
  return true;
}

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  PipelineIntegrationTest()
      : experiment_(CitationsProfile(), SmallParams()) {}
  Experiment experiment_;
};

TEST_F(PipelineIntegrationTest, AllPipelinesRunToCompletion) {
  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kIjGer, PipelineKind::kCddEr,
        PipelineKind::kDdEr, PipelineKind::kEditingEr,
        PipelineKind::kConstraintEr}) {
    PipelineRun run = experiment_.Run(kind);
    EXPECT_EQ(run.arrivals, 260u);
    EXPECT_GE(run.accuracy.f_score, 0.0);
    EXPECT_LE(run.accuracy.f_score, 1.0);
  }
}

/// The central consistency property: the indexed engines (TER-iDS, Ij+GER)
/// and the unindexed CDD+ER baseline share the imputation model, so their
/// reported pair sets must be identical — indexes and pruning change cost,
/// never results.
TEST_F(PipelineIntegrationTest, IndexedAndLinearCddPipelinesAgree) {
  auto collect = [&](PipelineKind kind) {
    std::unique_ptr<Repository> repo = experiment_.BuildRepository();
    std::unique_ptr<ErPipeline> pipeline = MakePipeline(
        kind, repo.get(), experiment_.MakeConfig(), 2, experiment_.cdds(),
        experiment_.dds(), experiment_.editing_rules());
    std::vector<Record> inc_a = DataGenerator::WithMissing(
        experiment_.dataset().source_a, SmallParams().xi, 1,
        SmallParams().seed);
    std::vector<Record> inc_b = DataGenerator::WithMissing(
        experiment_.dataset().source_b, SmallParams().xi, 1,
        SmallParams().seed + 1);
    StreamDriver driver({inc_a, inc_b});
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int i = 0; i < 260 && driver.HasNext(); ++i) {
      for (const MatchPair& p : pipeline->ProcessArrival(driver.Next()).new_matches) {
        pairs.emplace_back(p.rid_a, p.rid_b);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto terids = collect(PipelineKind::kTerIds);
  const auto ijger = collect(PipelineKind::kIjGer);
  const auto cdder = collect(PipelineKind::kCddEr);
  EXPECT_EQ(terids, cdder);
  EXPECT_EQ(ijger, cdder);
  EXPECT_FALSE(terids.empty());
}

TEST_F(PipelineIntegrationTest, ReportedPairsSpanTwoStreams) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  std::unique_ptr<ErPipeline> pipeline = MakePipeline(
      PipelineKind::kTerIds, repo.get(), experiment_.MakeConfig(), 2,
      experiment_.cdds(), experiment_.dds(), experiment_.editing_rules());
  const int64_t a_size =
      static_cast<int64_t>(experiment_.dataset().source_a.size());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  for (int i = 0; i < 260 && driver.HasNext(); ++i) {
    for (const MatchPair& p : pipeline->ProcessArrival(driver.Next()).new_matches) {
      const bool a_from_a = p.rid_a < a_size;
      const bool b_from_a = p.rid_b < a_size;
      EXPECT_NE(a_from_a, b_from_a) << "pair within one stream reported";
    }
  }
}

TEST_F(PipelineIntegrationTest, MatchProbabilitiesExceedAlpha) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  const EngineConfig config = experiment_.MakeConfig();
  std::unique_ptr<ErPipeline> pipeline = MakePipeline(
      PipelineKind::kTerIds, repo.get(), config, 2, experiment_.cdds(),
      experiment_.dds(), experiment_.editing_rules());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  for (int i = 0; i < 260 && driver.HasNext(); ++i) {
    for (const MatchPair& p : pipeline->ProcessArrival(driver.Next()).new_matches) {
      EXPECT_GT(p.probability, config.alpha);
    }
  }
}

TEST_F(PipelineIntegrationTest, EvictionRemovesExpiredPairsFromResultSet) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  EngineConfig config = experiment_.MakeConfig();
  config.window_size = 20;  // Aggressive eviction.
  TerIdsEngine engine(repo.get(), config, 2, experiment_.cdds());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  int64_t clock = 0;
  std::vector<std::pair<int64_t, int64_t>> live;
  while (driver.HasNext() && clock < 400) {
    const Record r = driver.Next();
    engine.ProcessArrival(r);
    ++clock;
  }
  // Every pair still in ES must reference tuples inside the live windows.
  std::vector<int64_t> live_rids;
  for (int s = 0; s < 2; ++s) {
    for (const auto& wt : engine.window(s).tuples()) {
      live_rids.push_back(wt->rid());
    }
  }
  std::sort(live_rids.begin(), live_rids.end());
  for (const MatchPair& p : engine.results().ToVector()) {
    EXPECT_TRUE(std::binary_search(live_rids.begin(), live_rids.end(), p.rid_a));
    EXPECT_TRUE(std::binary_search(live_rids.begin(), live_rids.end(), p.rid_b));
  }
}

TEST_F(PipelineIntegrationTest, UnconstrainedQueryReturnsSupersetOfTopical) {
  // With K = all topics (unconstrained), the result set must contain every
  // pair the topical query reports.
  ExperimentParams params = SmallParams();
  Experiment topical(CitationsProfile(), params);
  PipelineRun topical_run = topical.Run(PipelineKind::kTerIds);

  params.topics_in_query = 10;  // All generated topics.
  Experiment broad(CitationsProfile(), params);
  PipelineRun broad_run = broad.Run(PipelineKind::kTerIds);
  EXPECT_GE(broad_run.accuracy.returned, topical_run.accuracy.returned);
}

TEST_F(PipelineIntegrationTest, PruningPowerIsHigh) {
  PipelineRun run = experiment_.Run(PipelineKind::kTerIds);
  EXPECT_GT(run.stats.total_pairs, 0u);
  // The paper reports 98.32%-99.43% across datasets; at our scales the
  // cascade should still kill the overwhelming majority of pairs.
  EXPECT_GT(run.stats.TotalPower(), 0.9);
  // Topic pruning dominates (Figure 4's shape).
  EXPECT_GT(run.stats.topic_pruned, run.stats.prob_ub_pruned);
}

TEST_F(PipelineIntegrationTest, DynamicRepositoryAbsorption) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  ImputeProbe engine(repo.get(), experiment_.MakeConfig(), 2,
                     experiment_.cdds());
  StreamDriver driver(
      {experiment_.dataset().source_a, experiment_.dataset().source_b});
  std::vector<Record> before_absorb;
  for (int i = 0; i < 50 && driver.HasNext(); ++i) {
    before_absorb.push_back(driver.Next());
    engine.ProcessArrival(before_absorb.back());
  }
  const size_t before = repo->num_samples();
  std::vector<Record> batch(experiment_.dataset().repo_records.begin(),
                            experiment_.dataset().repo_records.begin() + 5);
  ASSERT_TRUE(engine.AbsorbRepositoryBatch(batch).ok());
  EXPECT_EQ(repo->num_samples(), before + 5);
  EXPECT_EQ(engine.dr_index().size(), before + 5);
  // The warm engine imputes exactly like one built over the grown
  // repository and the widened rules.
  ImputeProbe fresh(repo.get(), experiment_.MakeConfig(), 2, engine.rules());
  std::vector<Record> probes = before_absorb;
  for (int i = 0; i < 50 && driver.HasNext(); ++i) {
    probes.push_back(driver.Next());
    engine.ProcessArrival(probes.back());
  }
  for (const Record& r : probes) {
    EXPECT_TRUE(SameImputation(engine.ImputeOnly(r), fresh.ImputeOnly(r)))
        << "rid " << r.rid;
  }
}

/// Regression: an absorb that widens a rule's dependent interval past the
/// radius the value neighbourhoods were built for (here attribute 3's went
/// from 0 to 1.0) used to leave the lists at the old radius, silently
/// dropping candidates. The warm engine must keep imputing exactly like a
/// freshly built engine and like the linear rule scan, and its widened rules
/// must equal the brute-force absorb scan's. Run on both storage backends:
/// the snapshot's overlay domains hand out global ValueIds, which the
/// absorb's ValueId-keyed distances and constant tests rely on.
TEST(AbsorbRegressionTest, WidenedRadiusKeepsImputationsExact) {
  ExperimentParams params;
  params.scale = 0.004;
  params.w = 200;
  params.xi = 0.3;
  params.eta = 0.3;
  params.topics_in_query = 1;
  params.max_arrivals = 2000;
  params.seed = 64 * 101 + 3;
  Experiment exp(SongsProfile(), params);
  for (const RepoBackend backend :
       {RepoBackend::kInMemory, RepoBackend::kMmapSnapshot}) {
    std::unique_ptr<Repository> repo = exp.BuildRepository(backend);
    SCOPED_TRACE(repo->backend_name());
    EngineConfig config = exp.MakeConfig();
    config.repo_backend = backend;
    ImputeProbe engine(repo.get(), config, 2, exp.cdds());
    std::unordered_map<int64_t, const Record*> complete;
    for (const Record& r : exp.dataset().source_a) complete[r.rid] = &r;
    for (const Record& r : exp.dataset().source_b) complete[r.rid] = &r;

    RuleImputerOptions linear_opts;
    linear_opts.max_candidates_per_attr = config.max_candidates_per_attr;
    // The engine imputes every arrival (that is what warms its lists; the
    // ER phase does not touch them). The references are slower, so the
    // fresh engine checks every 2nd arrival and the linear scan every 16th
    // (before the absorb, both every 20th).
    size_t compared = 0;
    auto expect_exact = [&](ImputeProbe* fresh, RuleBasedImputer* linear,
                            const Record& r) {
      const auto got = engine.ImputeOnly(r);
      if (fresh != nullptr) {
        EXPECT_TRUE(SameImputation(got, fresh->ImputeOnly(r)))
            << "rid " << r.rid;
        compared += got.size();
      }
      if (linear != nullptr) {
        EXPECT_TRUE(SameImputation(got, linear->ImputeRecord(r, nullptr)))
            << "rid " << r.rid;
      }
    };

    StreamDriver driver({exp.incomplete_a(), exp.incomplete_b()});
    std::vector<Record> arrived;
    {
      ImputeProbe fresh(repo.get(), config, 2, exp.cdds());
      RuleBasedImputer linear(repo.get(), exp.cdds(), linear_opts);
      for (int i = 0; i < 1000 && driver.HasNext(); ++i) {
        arrived.push_back(driver.Next());
        const bool check = i % 20 == 0;
        expect_exact(check ? &fresh : nullptr, check ? &linear : nullptr,
                     arrived.back());
      }
    }
    ASSERT_EQ(arrived.size(), 1000u);
    std::vector<Record> batch;
    for (size_t k = 0; k < 50; ++k) {
      batch.push_back(*complete.at(arrived[arrived.size() - 1 - k].rid));
    }
    const std::vector<double> radius_before =
        ValueNeighborhoods::MaxRadiusPerAttr(exp.cdds(),
                                             repo->num_attributes());
    const size_t first_new = repo->num_samples();
    ASSERT_TRUE(engine.AbsorbRepositoryBatch(batch).ok());
    const std::vector<double> radius_after =
        ValueNeighborhoods::MaxRadiusPerAttr(engine.rules(),
                                             repo->num_attributes());
    EXPECT_LT(radius_before[3], radius_after[3]);  // The case this pins.
    std::vector<CddRule> oracle = exp.cdds();
    for (size_t idx = first_new; idx < repo->num_samples(); ++idx) {
      testing_util::BruteForceAbsorb(*repo, idx, &oracle);
    }
    EXPECT_EQ(testing_util::RuleSetDiff(engine.rules(), oracle), "");

    ImputeProbe fresh(repo.get(), config, 2, engine.rules());
    RuleBasedImputer linear(repo.get(), engine.rules(), linear_opts);
    for (int i = 0; driver.HasNext(); ++i) {
      expect_exact(i % 2 == 0 ? &fresh : nullptr,
                   i % 16 == 0 ? &linear : nullptr, driver.Next());
    }
    EXPECT_GT(compared, 500u);
  }
}

/// Async ingest runs only as the Scheduler's kIngest chain: asking for an
/// ingest queue without scheduler workers is a configuration error caught
/// at construction, not a silent fallback to synchronous ingest.
using PipelineConfigDeathTest = PipelineIntegrationTest;

TEST_F(PipelineConfigDeathTest, AsyncIngestWithoutSchedulerAborts) {
  std::unique_ptr<Repository> repo = experiment_.BuildRepository();
  EngineConfig config = experiment_.MakeConfig();
  config.ingest_queue_depth = 2;
  config.sched_threads = 0;
  EXPECT_DEATH(MakePipeline(PipelineKind::kTerIds, repo.get(), config, 2,
                            experiment_.cdds(), experiment_.dds(),
                            experiment_.editing_rules()),
               "ingest_queue_depth == 0 \\|\\| config_.sched_threads >= 1");
  // One worker is enough.
  config.sched_threads = 1;
  EXPECT_NE(MakePipeline(PipelineKind::kTerIds, repo.get(), config, 2,
                         experiment_.cdds(), experiment_.dds(),
                         experiment_.editing_rules()),
            nullptr);
}

TEST(MetricsTest, FScoreMath) {
  std::vector<MatchPair> returned = {{1, 10, 0.9}, {2, 11, 0.8}, {3, 12, 0.7}};
  std::vector<GroundTruthPair> truth = {{1, 10}, {2, 11}, {4, 13}, {5, 14}};
  PrecisionRecall pr = ComputeFScore(returned, truth);
  EXPECT_EQ(pr.true_positives, 2u);
  EXPECT_DOUBLE_EQ(pr.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
  EXPECT_NEAR(pr.f_score, 2 * (2.0 / 3.0) * 0.5 / ((2.0 / 3.0) + 0.5), 1e-12);
}

TEST(MetricsTest, EmptyInputsAreZero) {
  PrecisionRecall pr = ComputeFScore({}, {});
  EXPECT_DOUBLE_EQ(pr.precision, 0.0);
  EXPECT_DOUBLE_EQ(pr.recall, 0.0);
  EXPECT_DOUBLE_EQ(pr.f_score, 0.0);
}

TEST(MetricsTest, DuplicateReturnsCountOnce) {
  std::vector<MatchPair> returned = {{1, 10, 0.9}, {10, 1, 0.8}};
  std::vector<GroundTruthPair> truth = {{1, 10}};
  PrecisionRecall pr = ComputeFScore(returned, truth);
  EXPECT_EQ(pr.returned, 1u);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
}

}  // namespace
}  // namespace terids
