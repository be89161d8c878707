// Parameterized end-to-end soundness sweeps.
//
// 1. Across combinations of (alpha, rho, xi), the fully indexed + pruned
//    TER-iDS engine must report exactly the same pair set as the
//    unindexed, unpruned CDD+ER baseline. This is the strongest property
//    the system has — every index, synopsis, bound, and pruning theorem
//    changes cost, never results — checked over a grid of query
//    parameters rather than a single configuration.
// 2. Across every datagen profile and (batch_size, refine_threads,
//    ingest_queue_depth, sched_threads) combination, the
//    batched / parallel / async-ingest operator (ProcessStream over
//    ProcessBatch + RefinementExecutor + BatchQueue, fanned out on the
//    Scheduler) must be bit-identical to one-at-a-time ProcessArrival: same
//    per-arrival matches in the same order, same final MatchSet, same
//    cumulative PruneStats, sig_* filter counters included.
// 3. On the windows each profile's replay leaves behind, the signature-
//    bounded kernel InstanceSimilarityExceeds returns exactly
//    InstanceSimilarity > g for every instance pair, at g on both sides of
//    and exactly at each pair's similarity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "core/pipeline.h"
#include "core/terids_engine.h"
#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "er/similarity.h"
#include "eval/experiment.h"
#include "stream/stream_driver.h"

namespace terids {
namespace {

using Combo = std::tuple<double, double, double>;  // alpha, rho, xi

class EquivalenceSweepTest : public ::testing::TestWithParam<Combo> {};

TEST_P(EquivalenceSweepTest, TerIdsEqualsUnprunedBaseline) {
  const auto [alpha, rho, xi] = GetParam();
  ExperimentParams params;
  params.scale = 0.04;
  params.w = 50;
  params.max_arrivals = 220;
  params.alpha = alpha;
  params.rho = rho;
  params.xi = xi;
  Experiment experiment(CitationsProfile(), params);

  auto collect = [&](PipelineKind kind) {
    std::unique_ptr<Repository> repo = experiment.BuildRepository();
    std::unique_ptr<ErPipeline> pipeline = MakePipeline(
        kind, repo.get(), experiment.MakeConfig(), 2, experiment.cdds(),
        experiment.dds(), experiment.editing_rules());
    std::vector<Record> inc_a = DataGenerator::WithMissing(
        experiment.dataset().source_a, xi, params.m, params.seed);
    std::vector<Record> inc_b = DataGenerator::WithMissing(
        experiment.dataset().source_b, xi, params.m, params.seed + 1);
    StreamDriver driver({inc_a, inc_b});
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int i = 0; i < params.max_arrivals && driver.HasNext(); ++i) {
      for (const MatchPair& p :
           pipeline->ProcessArrival(driver.Next()).new_matches) {
        pairs.emplace_back(p.rid_a, p.rid_b);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };

  const auto terids = collect(PipelineKind::kTerIds);
  const auto baseline = collect(PipelineKind::kCddEr);
  EXPECT_EQ(terids, baseline)
      << "alpha=" << alpha << " rho=" << rho << " xi=" << xi;
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, EquivalenceSweepTest,
    ::testing::Values(Combo{0.1, 0.5, 0.3}, Combo{0.5, 0.5, 0.3},
                      Combo{0.8, 0.5, 0.3}, Combo{0.5, 0.3, 0.3},
                      Combo{0.5, 0.7, 0.3}, Combo{0.5, 0.5, 0.0},
                      Combo{0.5, 0.5, 0.6}, Combo{0.2, 0.4, 0.5},
                      Combo{0.7, 0.6, 0.2}));

// --- Batched / parallel / async operator equivalence -----------------------

// profile, batch, refine_threads, ingest_queue_depth, sched_threads
using BatchCombo = std::tuple<std::string, int, int, int, int>;

class BatchEquivalenceSweepTest
    : public ::testing::TestWithParam<BatchCombo> {};

/// Sweep-sized experiment for one profile. Per-profile scale mirrors
/// bench::BaseParams ratios: EBooks (long token sets) and Songs (the
/// 1M-tuple dataset) blow up wall time at a uniform scale without adding
/// coverage.
ExperimentParams SweepParams(const std::string& profile) {
  ExperimentParams params;
  params.scale = 0.04;
  if (profile == "EBooks") params.scale = 0.012;
  if (profile == "Songs") params.scale = 0.002;
  params.w = 50;
  params.max_arrivals = 220;
  return params;
}

struct ReplayResult {
  std::vector<std::pair<int64_t, int64_t>> emitted;  // in emission order
  std::vector<MatchPair> final_set;                  // sorted snapshot
  PruneStats stats;
  ShedStats shed;
};

/// Streams the experiment's incomplete arrivals through a `kind` pipeline
/// over `repo` under `config`. ProcessStream is the one operator entry point
/// under test: the synchronous NextBatch/ProcessBatch loop when
/// ingest_queue_depth == 0, the Scheduler's async ingest chain otherwise.
ReplayResult Replay(const Experiment& experiment, PipelineKind kind,
                    Repository* repo, const EngineConfig& config) {
  std::unique_ptr<ErPipeline> pipeline =
      MakePipeline(kind, repo, config, 2, experiment.cdds(), experiment.dds(),
                   experiment.editing_rules());
  StreamDriver driver({experiment.incomplete_a(), experiment.incomplete_b()});
  ReplayResult result;
  pipeline->ProcessStream(
      &driver, static_cast<size_t>(experiment.params().max_arrivals),
      static_cast<size_t>(config.batch_size), [&result](ArrivalOutcome&& out) {
        for (const MatchPair& p : out.new_matches) {
          result.emitted.emplace_back(p.rid_a, p.rid_b);
        }
      });
  result.final_set = pipeline->results().ToVector();
  result.stats = pipeline->cumulative_stats();
  result.shed = *pipeline->shed_stats();
  return result;
}

// Compares the outcome counters and the sig_* observability counters
// (sig_probes / sig_saturated / sig_rejects): the filter visits the same
// instance pairs whatever the placement, so its work counts are part of
// the bit-identity contract too.
void ExpectSameReplay(const ReplayResult& got, const ReplayResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.emitted, want.emitted) << label;
  ASSERT_EQ(got.final_set.size(), want.final_set.size()) << label;
  for (size_t i = 0; i < got.final_set.size(); ++i) {
    EXPECT_EQ(got.final_set[i].rid_a, want.final_set[i].rid_a);
    EXPECT_EQ(got.final_set[i].rid_b, want.final_set[i].rid_b);
    EXPECT_DOUBLE_EQ(got.final_set[i].probability,
                     want.final_set[i].probability);
  }
  const PruneStats& a = got.stats;
  const PruneStats& b = want.stats;
  EXPECT_EQ(a.total_pairs, b.total_pairs) << label;
  EXPECT_EQ(a.topic_pruned, b.topic_pruned) << label;
  EXPECT_EQ(a.sim_ub_pruned, b.sim_ub_pruned) << label;
  EXPECT_EQ(a.prob_ub_pruned, b.prob_ub_pruned) << label;
  EXPECT_EQ(a.instance_pruned, b.instance_pruned) << label;
  EXPECT_EQ(a.refined, b.refined) << label;
  EXPECT_EQ(a.matched, b.matched) << label;
  EXPECT_EQ(a.sig_probes, b.sig_probes) << label;
  EXPECT_EQ(a.sig_saturated, b.sig_saturated) << label;
  EXPECT_EQ(a.sig_rejects, b.sig_rejects) << label;
  // Degradation is required to be *visible*: outside the degrade policy
  // under pressure, no pair may ever be recorded as deferred.
  EXPECT_EQ(a.deferred, b.deferred) << label;
}

TEST_P(BatchEquivalenceSweepTest, ProcessBatchEqualsOneAtATime) {
  const auto [profile, batch_size, refine_threads, queue_depth,
              sched_threads] = GetParam();
  Experiment experiment(ProfileByName(profile), SweepParams(profile));

  // The TER-iDS engine covers grid candidates + the pruning cascade (and,
  // in queue > 0 combos, the async kIngest chain); the con+ER baseline
  // covers linear candidates, the unpruned exact path, and a stateful
  // stream imputer whose OnArrival/OnEvict ordering the batched operator
  // must reproduce — its imputer mutates refinement-visible state, so its
  // pipeline must transparently stay synchronous at any queue depth.
  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kConstraintEr}) {
    // The oracle is the synchronous sequential operator: one-at-a-time,
    // no scheduler.
    EngineConfig config = experiment.MakeConfig();
    std::unique_ptr<Repository> oracle_repo = experiment.BuildRepository();
    const ReplayResult sequential =
        Replay(experiment, kind, oracle_repo.get(), config);

    config.batch_size = batch_size;
    config.refine_threads = refine_threads;
    config.ingest_queue_depth = queue_depth;
    config.sched_threads = sched_threads;
    std::unique_ptr<Repository> repo = experiment.BuildRepository();
    ExpectSameReplay(Replay(experiment, kind, repo.get(), config), sequential,
                     profile + " " + PipelineKindName(kind));
  }
}

// --- Storage-backend equivalence -------------------------------------------

// Across every datagen profile, an engine reading the repository through
// MmapSnapshotStorage (snapshot write -> mmap reopen, DESIGN.md §8) must be
// bit-identical to the InMemoryStorage oracle: same per-arrival matches in
// the same order, same final MatchSet, same cumulative PruneStats. TER-iDS
// exercises the full read path (domains, pivot tables, coordinate scans,
// DR-index build over samples); con+ER additionally exercises the dynamic
// overlay, because its imputer registers stream values into the domains
// after the snapshot was opened. The mmap backend runs under both decode
// modes: kEager (everything materialized at open, the decode-at-open
// oracle path) and kLazy (sections decode on first touch mid-replay), so
// lazy first-touch decode is proven output-invariant on every profile.
class RepoBackendEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RepoBackendEquivalenceTest, MmapSnapshotEqualsInMemoryOracle) {
  const std::string profile = GetParam();
  Experiment experiment(ProfileByName(profile), SweepParams(profile));

  for (PipelineKind kind :
       {PipelineKind::kTerIds, PipelineKind::kConstraintEr}) {
    auto replay = [&](RepoBackend backend, SnapshotDecode decode) {
      std::unique_ptr<Repository> repo =
          experiment.BuildRepository(backend, decode);
      EXPECT_STREQ(repo->backend_name(), RepoBackendName(backend));
      EngineConfig config = experiment.MakeConfig();
      config.repo_backend = backend;
      config.snapshot_decode = decode;
      return Replay(experiment, kind, repo.get(), config);
    };

    const ReplayResult memory =
        replay(RepoBackend::kInMemory, SnapshotDecode::kEager);
    for (SnapshotDecode decode :
         {SnapshotDecode::kEager, SnapshotDecode::kLazy}) {
      ExpectSameReplay(replay(RepoBackend::kMmapSnapshot, decode), memory,
                       profile + " " + PipelineKindName(kind) + " decode=" +
                           SnapshotDecodeName(decode));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, RepoBackendEquivalenceTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"),
                         [](const ::testing::TestParamInfo<std::string>&
                                info) { return info.param; });

// --- Overload-policy equivalence -------------------------------------------

// The admission-control layer (DESIGN.md §13) must be invisible whenever it
// is allowed to be: overload_policy=block is the backpressure oracle and
// must be bit-identical to the sequential run on every profile, on the
// scheduler's kIngest chain.
// The shedding/degrading policies must be bit-identical whenever the
// pressure signal never fires — enforced here with a queue deep enough
// that the replay's batch count can never fill it.
//
// profile, policy, ingest_queue_depth, sched_threads
using OverloadCombo = std::tuple<std::string, OverloadPolicy, int, int>;

class OverloadPolicyEquivalenceTest
    : public ::testing::TestWithParam<OverloadCombo> {};

TEST_P(OverloadPolicyEquivalenceTest, PolicyInertWithoutPressure) {
  const auto [profile, policy, queue_depth, sched_threads] = GetParam();
  Experiment experiment(ProfileByName(profile), SweepParams(profile));

  EngineConfig config = experiment.MakeConfig();
  config.batch_size = 8;
  std::unique_ptr<Repository> oracle_repo = experiment.BuildRepository();
  const ReplayResult sequential =
      Replay(experiment, PipelineKind::kTerIds, oracle_repo.get(), config);

  config.refine_threads = 4;
  config.ingest_queue_depth = queue_depth;
  config.sched_threads = sched_threads;
  config.overload_policy = policy;
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  const ReplayResult policy_run =
      Replay(experiment, PipelineKind::kTerIds, repo.get(), config);
  // No pressure, no shedding: the accounting must agree.
  EXPECT_EQ(policy_run.shed.shed_arrivals, 0);
  EXPECT_EQ(policy_run.shed.degraded_arrivals, 0);
  EXPECT_EQ(policy_run.shed.pressure_events, 0);
  ExpectSameReplay(policy_run, sequential,
                   profile + " policy=" + OverloadPolicyName(policy));
}

std::vector<OverloadCombo> OverloadCombos() {
  std::vector<OverloadCombo> combos;
  // block is the oracle under real backpressure (shallow queue): every
  // profile.
  for (const char* profile :
       {"Citations", "Anime", "Bikes", "EBooks", "Songs"}) {
    combos.emplace_back(profile, OverloadPolicy::kBlock, 2, 4);
  }
  // Non-block policies with a queue the replay cannot fill: the pressure
  // signal stays quiet, so they must be bit-identical too.
  for (OverloadPolicy policy :
       {OverloadPolicy::kShedNewest, OverloadPolicy::kShedOldest,
        OverloadPolicy::kDegrade}) {
    combos.emplace_back("Citations", policy, 64, 2);
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverloadPolicyEquivalenceTest,
    ::testing::ValuesIn(OverloadCombos()),
    [](const ::testing::TestParamInfo<OverloadCombo>& info) {
      return std::get<0>(info.param) +
             std::string("_") +
             OverloadPolicyName(std::get<1>(info.param)) + "_q" +
             std::to_string(std::get<2>(info.param)) + "_c" +
             std::to_string(std::get<3>(info.param));
    });

std::vector<BatchCombo> BatchCombos() {
  std::vector<BatchCombo> combos;
  for (const char* profile :
       {"Citations", "Anime", "Bikes", "EBooks", "Songs"}) {
    // The batch x threads matrix (synchronous ingest); parallel refinement
    // fans out on 3 workers.
    combos.emplace_back(profile, 1, 4, 0, 3);
    combos.emplace_back(profile, 8, 1, 0, 0);
    combos.emplace_back(profile, 8, 4, 0, 3);
    // ...plus the everything-on configuration per profile: async kIngest
    // chain + parallel refinement (the TSan job's main data-race surface),
    // once on a single worker and once on four.
    combos.emplace_back(profile, 8, 4, 2, 1);
    combos.emplace_back(profile, 8, 4, 2, 4);
  }
  // Scheduler axes in isolation (Citations): scheduler constructed but no
  // phase fans out; refinement fanning out alone; the kIngest chain alone
  // (batch 8 and batch 1); and the two-worker edge of the
  // caller-participation discipline under the everything-on load.
  combos.emplace_back("Citations", 1, 1, 0, 4);
  combos.emplace_back("Citations", 8, 4, 0, 4);
  combos.emplace_back("Citations", 8, 1, 2, 4);
  // chain, batch 1
  combos.emplace_back("Citations", 1, 1, 2, 4);
  combos.emplace_back("Citations", 8, 4, 2, 2);
  // A replay of the oracle configuration itself, and refinement fanning
  // out on two workers, one arrival and eight arrivals per batch.
  combos.emplace_back("Citations", 1, 1, 0, 0);
  combos.emplace_back("Citations", 1, 4, 0, 2);
  combos.emplace_back("Citations", 8, 4, 0, 2);
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, BatchEquivalenceSweepTest,
                         ::testing::ValuesIn(BatchCombos()),
                         [](const ::testing::TestParamInfo<BatchCombo>& info) {
                           return std::get<0>(info.param) + "_b" +
                                  std::to_string(std::get<1>(info.param)) +
                                  "_t" +
                                  std::to_string(std::get<2>(info.param)) +
                                  "_q" +
                                  std::to_string(std::get<3>(info.param)) +
                                  "_c" +
                                  std::to_string(std::get<4>(info.param));
                         });

// --- Signature-kernel soundness on real windows ----------------------------

// The signature-bounded kernel must decide sim > g exactly as the plain
// per-attribute Jaccard sum does, on the token sets real replays produce.
// Each profile streams through TER-iDS at sweep scale; every instance pair
// among the tuples left in the two windows is then checked at the query's
// gamma, at the pair's exact similarity (the verdict must be false), and
// one ulp below and above it (true and false) — the thresholds where a
// bound that rounded differently from the exact sum would flip a verdict.
class SignatureKernelSoundnessTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SignatureKernelSoundnessTest, ExceedsEqualsExactOnWindowPairs) {
  const std::string profile = GetParam();
  Experiment experiment(ProfileByName(profile), SweepParams(profile));
  const EngineConfig config = experiment.MakeConfig();
  std::unique_ptr<Repository> repo = experiment.BuildRepository();
  TerIdsEngine engine(repo.get(), config, 2, experiment.cdds());
  StreamDriver driver({experiment.incomplete_a(), experiment.incomplete_b()});
  engine.ProcessStream(&driver,
                       static_cast<size_t>(experiment.params().max_arrivals),
                       1, [](ArrivalOutcome&&) {});

  std::vector<const ImputedTuple*> tuples;
  for (int stream = 0; stream < 2; ++stream) {
    for (const auto& wt : engine.window(stream).tuples()) {
      tuples.push_back(wt->tuple.get());
    }
  }
  ASSERT_GT(tuples.size(), 1u) << profile;

  const double inf = std::numeric_limits<double>::infinity();
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
  for (size_t i = 0; i < tuples.size(); ++i) {
    for (size_t j = i; j < tuples.size(); ++j) {
      const ImputedTuple& a = *tuples[i];
      const ImputedTuple& b = *tuples[j];
      for (int m = 0; m < a.num_instances(); ++m) {
        for (int mp = 0; mp < b.num_instances(); ++mp) {
          const double exact = InstanceSimilarity(a, m, b, mp);
          for (const double g : {config.gamma, exact,
                                 std::nextafter(exact, -inf),
                                 std::nextafter(exact, inf)}) {
            ++checked;
            if (InstanceSimilarityExceeds(a, m, b, mp, g) == (exact > g)) {
              continue;
            }
            if (mismatches++ == 0) {
              first_mismatch = "rid " + std::to_string(a.rid()) + "/" +
                               std::to_string(m) + " vs rid " +
                               std::to_string(b.rid()) + "/" +
                               std::to_string(mp) + " at g " +
                               std::to_string(g);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u) << profile;
  EXPECT_EQ(mismatches, 0u) << profile << " of " << checked << " checks; first "
                            << first_mismatch;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, SignatureKernelSoundnessTest,
                         ::testing::Values("Citations", "Anime", "Bikes",
                                           "EBooks", "Songs"),
                         [](const ::testing::TestParamInfo<std::string>&
                                info) { return info.param; });

}  // namespace
}  // namespace terids
