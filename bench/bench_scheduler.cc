// Scheduler scaling: end-to-end TER-iDS throughput and per-arrival tail
// latency as a function of the Scheduler's worker count (sched_threads),
// with the synchronous operator (sched=0) as both the throughput baseline
// and the correctness oracle. Not a paper figure — this tracks the
// execution runtime (DESIGN.md §10) on top of the reproduced system.
//
// Every row runs the identical arrival sequence in micro-batches of 8.
// sched=0 is the synchronous operator: ingest and refinement alternate on
// the calling thread. sched>=1 adds the async kIngest chain (queue depth 2)
// and fans refinement out over that many workers plus the caller. Output
// is bit-identical across the whole sweep by the determinism contract, and
// this bench refuses to report numbers if not. Parallel speedups require
// physical cores; a 1-core host shows overhead only.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/profiles.h"

namespace {

using namespace terids;
using namespace terids::bench;

// Per-arrival phase/e2e histograms as columns of one table row.
void PrintLatencyRow(int sched, const PipelineRun& run, double throughput,
                     double speedup) {
  const LatencyHistogram& e2e = run.arrival_latency.end_to_end;
  std::printf("%6d %12.4f %12.1f %8.2fx %9.3f %9.3f %9.3f", sched,
              1e3 * run.avg_arrival_seconds, throughput, speedup,
              1e3 * e2e.Percentile(0.50), 1e3 * e2e.Percentile(0.99),
              1e3 * e2e.Percentile(0.999));
  for (int p = 0; p < kNumExecPhases; ++p) {
    const LatencyHistogram& phase =
        run.arrival_latency.of(static_cast<ExecPhase>(p));
    std::printf(" %9.3f", 1e3 * phase.Percentile(0.99));
  }
  std::printf("\n");
  std::fflush(stdout);
}

bool SameOutput(const PruneStats& a, const PruneStats& b) {
  return a.total_pairs == b.total_pairs && a.topic_pruned == b.topic_pruned &&
         a.sim_ub_pruned == b.sim_ub_pruned &&
         a.prob_ub_pruned == b.prob_ub_pruned &&
         a.instance_pruned == b.instance_pruned && a.refined == b.refined &&
         a.matched == b.matched;
}

}  // namespace

int main() {
  JsonReporter reporter("scheduler");
  const ExecKnobs env_knobs = BenchExecKnobs();
  const std::string dataset = "Citations";
  ExperimentParams params = BaseParams(dataset);
  // Micro-batches with parallel refinement on every row; the sweep
  // isolates the worker topology.
  params.batch_size = 8;
  params.refine_threads = 4;
  params.ingest_queue_depth = 0;
  params.sched_threads = 0;
  Experiment experiment(ProfileByName(dataset), params);
  PrintHeader("scheduler",
              "end-to-end throughput + per-arrival tail latency vs "
              "sched_threads (0 = synchronous operator)",
              params);

  std::printf("\n-- end-to-end TER-iDS, batch 8; latency in ms --\n");
  std::printf("%6s %12s %12s %9s %9s %9s %9s %9s %9s %9s %9s\n", "sched",
              "ms/arrival", "arrivals/s", "speedup", "e2e p50", "e2e p99",
              "e2e p999", "ing p99", "cand p99", "ref p99", "mnt p99");

  PipelineRun oracle;
  double base_throughput = 0.0;
  double best_speedup = 0.0;
  int best_sched = 0;
  double one_worker_throughput = 0.0;
  double best_multi_throughput = 0.0;
  int best_multi_sched = 0;
  for (int sched : {0, 1, 2, 4, 8}) {
    EngineConfig config = experiment.MakeConfig();
    config.sched_threads = sched;
    config.ingest_queue_depth = sched == 0 ? 0 : 2;
    PipelineRun run = experiment.Run(PipelineKind::kTerIds, config);
    const double throughput =
        run.total_seconds > 0
            ? static_cast<double>(run.arrivals) / run.total_seconds
            : 0.0;
    if (sched == 0) {
      base_throughput = throughput;
      oracle = run;
    } else if (!SameOutput(run.stats, oracle.stats) ||
               run.final_result_size != oracle.final_result_size ||
               run.accuracy.f_score != oracle.accuracy.f_score) {
      // The determinism contract is load-bearing for the scheduler; a bench
      // run that violates it must not report numbers as if it passed.
      std::fprintf(stderr,
                   "FATAL: sched_threads=%d changed the pipeline output\n",
                   sched);
      return 1;
    }
    const double speedup =
        base_throughput > 0 ? throughput / base_throughput : 0.0;
    if (sched >= 1 && speedup > best_speedup) {
      best_speedup = speedup;
      best_sched = sched;
    }
    if (sched == 1) {
      one_worker_throughput = throughput;
    } else if (sched >= 2 && throughput > best_multi_throughput) {
      best_multi_throughput = throughput;
      best_multi_sched = sched;
    }
    PrintLatencyRow(sched, run, throughput, speedup);
    ExecKnobs knobs = env_knobs;
    knobs.batch_size = config.batch_size;
    knobs.refine_threads = config.refine_threads;
    knobs.ingest_queue_depth = config.ingest_queue_depth;
    knobs.sched_threads = sched;
    reporter.AddKnobRow(knobs)
        .Str("dataset", dataset)
        .Num("ms_per_arrival", 1e3 * run.avg_arrival_seconds)
        .Num("arrivals_per_sec", throughput)
        .Num("speedup_vs_sync", speedup)
        // Per-arrival latency: phase + end-to-end histograms recorded at
        // each emission (p50/p99/p999/mean/max/count per histogram).
        .Raw("arrival_latency", run.arrival_latency.ToJson())
        // Per-work-item service times from the scheduler's worker rings
        // (empty at sched=0: no scheduler).
        .Raw("sched_item_latency", run.sched_item_latency.ToJson());
  }

  std::printf("\n");
  char evidence[160];
  std::snprintf(evidence, sizeof(evidence),
                "best %.2fx at sched=%d vs %.1f arrivals/s synchronous",
                best_speedup, best_sched, base_throughput);
  PrintVerdict("the Scheduler beats the synchronous operator",
               best_speedup > 1.0, evidence);
  std::snprintf(evidence, sizeof(evidence),
                "best %.1f arrivals/s at sched=%d vs %.1f at sched=1",
                best_multi_throughput, best_multi_sched,
                one_worker_throughput);
  PrintVerdict("extra workers pay over a single one",
               best_multi_throughput > one_worker_throughput, evidence);
  PrintVerdict("every row is bit-identical to the synchronous operator",
               true, "stats, result size and F-score checked per row");
  return 0;
}
