#include "exec/refinement_executor.h"

#include <algorithm>
#include <vector>

#include "er/probability.h"
#include "util/status.h"

namespace terids {

namespace {

/// Pairs a refine shard must carry before the batch is cut into more than
/// two. Most pairs end in the cheap head of the cascade (topic or signature
/// rejects, ~0.25 us each on Citations), so this is about a millisecond of
/// work. Finer shards pay only while every woken worker gets a CPU of its
/// own. On a contended host the OS may queue the woken workers on the
/// caller's CPU instead, and the batch then runs at serial speed whatever
/// its shard count; the more a batch gains from spread-out workers, the
/// more its throughput swings with the host's load. Two shards keep that
/// swing to one worker's share.
constexpr int64_t kMinShardPairs = 4096;

}  // namespace

PairEvaluation RefinementExecutor::Evaluate(const Task& task,
                                            bool use_prunings,
                                            double gamma, double alpha) {
  const WindowTuple& cand = *task.candidate;
  if (use_prunings) {
    return EvaluatePair(*task.probe, *task.probe_topic, *cand.tuple,
                        cand.topic, gamma, alpha);
  }
  // Unpruned baselines: every pair is fully refined with the exact
  // probability, matching the sequential unpruned loop bit-for-bit.
  PairEvaluation eval;
  SigFilterCounters sig;
  eval.probability = ExactProbability(*task.probe, *task.probe_topic,
                                      *cand.tuple, cand.topic, gamma, &sig);
  eval.sig_probes = sig.probes;
  eval.sig_saturated = sig.saturated;
  eval.sig_rejects = sig.rejects;
  eval.outcome = eval.probability > alpha ? PairOutcome::kMatched
                                          : PairOutcome::kRefuted;
  return eval;
}

void RefinementExecutor::Run(const std::vector<Task>& tasks,
                             bool use_prunings, double gamma, double alpha,
                             std::vector<PairEvaluation>* evaluations) {
  const int64_t n = static_cast<int64_t>(tasks.size());
  evaluations->resize(tasks.size());
  if (n == 0) {
    return;
  }
  if (scheduler_ == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      (*evaluations)[i] = Evaluate(tasks[i], use_prunings, gamma, alpha);
    }
    return;
  }
  // Contiguous shards: two (the caller and one worker) unless each of more
  // would still carry kMinShardPairs, and at most four per thread, so an
  // expensive stretch of pairs (deep instance cross products) does not
  // serialize a large batch.
  const int64_t max_shards =
      static_cast<int64_t>(scheduler_->concurrency()) * 4;
  const int64_t num_shards = std::clamp<int64_t>(
      n / kMinShardPairs, std::min<int64_t>(n, 2), max_shards);
  const int64_t shard_size = (n + num_shards - 1) / num_shards;
  scheduler_->ParallelFor(ExecPhase::kRefine, num_shards, [&](int64_t shard) {
    const int64_t begin = shard * shard_size;
    const int64_t end = std::min(n, begin + shard_size);
    for (int64_t i = begin; i < end; ++i) {
      (*evaluations)[i] = Evaluate(tasks[i], use_prunings, gamma, alpha);
    }
  });
}

}  // namespace terids
