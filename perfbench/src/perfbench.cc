// Closed-loop stream benchmark of the TER-iDS engine.
//
//   terids_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|tiny] [--trace-out <path>]
//
// Runs one workload in this process (so peak RSS and lazy caches never carry
// over between workloads) through the library's public API only: Experiment
// generates the inputs, the benchmark times the set-up stages itself, and
// ErPipeline::ProcessStream replays the stream with a single client — the
// benchmark thread — that hands out the next micro-batch only when the
// pipeline pulls it. Every layer is measured from outside: spans around the
// benchmark's own calls, plus the counters the engine already exposes
// (ArrivalOutcome::cost, cumulative_stats, ConsumeSchedulerLatencies,
// shed_stats).
//
// A run is many rounds, each over its own generated dataset (derived from
// --seed): throughput on these profiles depends on the dataset drawn
// (which rules are mined, how many value neighbourhoods the stream touches)
// by up to 2x, and pooling many small rounds keeps one such draw from
// moving a run's figures.
//
// The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Earlier lines carry a human-readable table and a
// "# stamp" line with the build, machine and run facts. Exit code 0 only
// when every output check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "pivot/pivot_selector.h"
#include "repo/repository.h"
#include "rules/rule_miner.h"
#include "span_recorder.h"
#include "stream/stream_driver.h"

namespace perfbench {
namespace {

using terids::ArrivalDisposition;
using terids::ArrivalOutcome;
using terids::CddRule;
using terids::EngineConfig;
using terids::ErPipeline;
using terids::ExecPhase;
using terids::Experiment;
using terids::ExperimentParams;
using terids::LatencyStats;
using terids::MatchPair;
using terids::PipelineKind;
using terids::PruneStats;
using terids::Record;
using terids::Repository;
using terids::ShedStats;
using terids::StreamDriver;

// ---------------------------------------------------------------------------
// Clock, resources, small statistics
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

/// Seconds since the process's clock origin (every span shares it).
double Now() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

/// User + system CPU seconds of the whole process, all threads.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Nearest-rank quantile of `values` (copied, so callers keep their order).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

/// Median of `values`: the mean of the two middle values when even.
double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return 0.5 * (values[(n - 1) / 2] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over raw bytes; the digest of emitted matches and MatchSets.
void Fnv(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void FnvPair(uint64_t* h, const MatchPair& m) {
  Fnv(h, &m.rid_a, sizeof(m.rid_a));
  Fnv(h, &m.rid_b, sizeof(m.rid_b));
  Fnv(h, &m.probability, sizeof(m.probability));
}

/// Compiler identification for the result stamp ("12.2.0" on gcc,
/// "Clang ..." on clang).
constexpr const char* kCompiler = __VERSION__;

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

uint64_t MatchSetDigest(const ErPipeline& pipeline) {
  std::vector<MatchPair> pairs = pipeline.results().ToVector();
  std::sort(pairs.begin(), pairs.end(),
            [](const MatchPair& a, const MatchPair& b) {
              return a.rid_a != b.rid_a ? a.rid_a < b.rid_a
                                        : a.rid_b < b.rid_b;
            });
  uint64_t h = kFnvBasis;
  for (const MatchPair& m : pairs) {
    FnvPair(&h, m);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload. Sizes are for --size full; --size tiny divides
/// the dataset scale, the arrivals per round and the absorb cadence by
/// kTinyDivisor and runs at most 2 rounds, so the self-test runs every
/// workload through the same checks in seconds.
struct Workload {
  const char* name;
  const char* profile;
  double scale;
  int w;
  double xi;
  double eta;
  int topics;
  /// Independent datasets per run, and the arrivals replayed from each.
  int rounds = 1;
  int round_arrivals = 1;
  /// Timed set-ups per round; the last one runs the stream.
  int setup_reps = 1;
  // Execution knobs (EngineConfig); the serial workloads keep 1/1/0.
  int batch_size = 1;
  int refine_threads = 1;
  int sched_threads = 0;
  // Repository writes: AbsorbRepositoryBatch(absorb_size complete tuples)
  // after every absorb_every arrivals (0 = read-only workload).
  int absorb_every = 0;
  int absorb_size = 0;
  /// Replays the first round's stream through the serial operator
  /// afterwards and requires bit-identical emitted matches and final
  /// MatchSet.
  bool check_serial_twin = false;

  /// Threads the workload may keep busy: the calling thread plus the
  /// scheduler's workers.
  int thread_budget() const { return 1 + sched_threads; }
  bool serial() const { return sched_threads == 0 && batch_size == 1; }
};

constexpr int kTinyDivisor = 10;

/// Many small rounds rather than a few long ones: per-dataset throughput
/// varies by up to 2x, and the number of datasets a run pools sets how far
/// one seed's figures stray from another's. A citations-join twin through
/// the serial operator and a songs-impute twin without absorbs were
/// dropped: on a shared 4-vCPU host their timings spread by 0.3-0.5 of the
/// median between seeds.
std::vector<Workload> AllWorkloads() {
  std::vector<Workload> out;
  // Imputation dominates, under writes beside reads (Section 5.5): Songs'
  // wide domains make the DR-index retrieval and value-neighbourhood
  // accumulation most of per-arrival cost, and every absorb invalidates the
  // value neighbourhoods.
  Workload absorb{"songs-absorb", "Songs", 0.004, 200, 0.3, 0.3, 1};
  absorb.rounds = 14;
  absorb.round_arrivals = 2000;
  absorb.absorb_every = 1000;
  absorb.absorb_size = 50;
  out.push_back(absorb);
  // The join dominates: Citations at the paper's w = 1000 with a 3-topic
  // query refines many candidate pairs against a small repository, on the
  // unified Scheduler: 3 workers + the calling thread = 4 threads, each
  // batch of 8 refined in parallel (bit-identical output). Ingest stays
  // synchronous: with a 2-deep ingest queue the latency figures swung by
  // 37-66% (IQR over median) between seeds on a shared 4-vCPU host,
  // because queueing amplifies host noise.
  Workload par{"citations-parallel", "Citations", 2.0, 1000, 0.1, 0.1, 3};
  par.rounds = 10;
  par.round_arrivals = 3000;
  par.setup_reps = 2;
  par.batch_size = 8;
  par.refine_threads = 4;
  par.sched_threads = 3;
  par.check_serial_twin = true;
  out.push_back(par);
  return out;
}

/// The dataset seed of one round: distinct for every (seed, round) pair.
uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 64 + static_cast<uint64_t>(round);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 20210620;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the first arrival
// ---------------------------------------------------------------------------

/// One timed set-up: repository load, pivot selection, CDD mining and the
/// engine construction that builds the CDD-index and DR-index. Data
/// generation and ground-truth replay are the load generator's (Experiment)
/// and are not timed.
struct Setup {
  std::unique_ptr<Repository> repo;
  std::vector<CddRule> cdds;
  std::unique_ptr<ErPipeline> pipeline;
  double load_s = 0.0;
  double pivot_s = 0.0;
  double mine_s = 0.0;
  double index_s = 0.0;
  /// Whether the mined CDDs equal the ones Experiment mined offline.
  bool rules_match = false;

  double total_s() const { return load_s + pivot_s + mine_s + index_s; }
};

bool SameRules(const std::vector<CddRule>& a, const std::vector<CddRule>& b,
               const terids::Schema& schema) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ToString(schema) != b[i].ToString(schema)) {
      return false;
    }
  }
  return true;
}

Setup RunSetup(const Experiment& exp, const EngineConfig& config,
               SpanRecorder* rec, int64_t parent, int rep) {
  const terids::GeneratedDataset& ds = exp.dataset();
  Setup s;
  const double t0 = Now();
  s.repo = std::make_unique<Repository>(ds.schema.get(), ds.dict.get());
  for (const Record& r : ds.repo_records) {
    TERIDS_CHECK(s.repo->AddSample(r).ok());
  }
  const double t1 = Now();
  s.repo->AttachPivots(
      terids::PivotSelector(s.repo.get(), terids::PivotOptions{}).SelectAll());
  const double t2 = Now();
  s.cdds = terids::RuleMiner(s.repo.get(), terids::MinerOptions{}).MineCdds();
  const double t3 = Now();
  s.pipeline = terids::MakePipeline(PipelineKind::kTerIds, s.repo.get(),
                                    config, /*num_streams=*/2, s.cdds, {}, {});
  TERIDS_CHECK(s.pipeline != nullptr);
  const double t4 = Now();
  s.load_s = t1 - t0;
  s.pivot_s = t2 - t1;
  s.mine_s = t3 - t2;
  s.index_s = t4 - t3;
  s.rules_match = SameRules(s.cdds, exp.cdds(), *ds.schema);
  const int64_t root = rec->Add(parent, "setup", rep, t0, t4);
  rec->Add(root, "repo.load", rep, t0, t1);
  rec->Add(root, "pivot.select", rep, t1, t2);
  rec->Add(root, "rules.mine", rep, t2, t3);
  rec->Add(root, "index.build", rep, t3, t4);
  return s;
}

// ---------------------------------------------------------------------------
// The load generator's driver
// ---------------------------------------------------------------------------

/// StreamDriver that stamps when each arrival is handed to the pipeline
/// and which batch it travelled in, and stops offering arrivals after a
/// hard deadline.
class TimedDriver : public StreamDriver {
 public:
  TimedDriver(std::vector<std::vector<Record>> sources, double deadline)
      : StreamDriver(std::move(sources)),
        deadline_(deadline),
        handout_(total(), 0.0),
        batch_first_(total(), -1),
        batch_last_(total(), -1),
        rid_(total(), -1) {}

  bool HasNext() const override {
    return StreamDriver::HasNext() && Now() < deadline_;
  }

  std::vector<Record> NextBatch(size_t max_records) override {
    std::vector<Record> batch = StreamDriver::NextBatch(max_records);
    const double t = Now();
    if (batch.empty()) {
      return batch;
    }
    const int64_t first = batch.front().timestamp;
    const int64_t last = batch.back().timestamp;
    for (const Record& r : batch) {
      const auto ts = static_cast<size_t>(r.timestamp);
      handout_[ts] = t;
      batch_first_[ts] = first;
      batch_last_[ts] = last;
      rid_[ts] = r.rid;
    }
    return batch;
  }

  double handout(int64_t ts) const { return handout_[ts]; }
  int64_t batch_first(int64_t ts) const { return batch_first_[ts]; }
  int64_t batch_last(int64_t ts) const { return batch_last_[ts]; }
  int64_t rid(int64_t ts) const { return rid_[ts]; }

 private:
  double deadline_;
  std::vector<double> handout_;
  std::vector<int64_t> batch_first_;
  std::vector<int64_t> batch_last_;
  std::vector<int64_t> rid_;
};

// ---------------------------------------------------------------------------
// One pass over one round's stream
// ---------------------------------------------------------------------------

struct PassResult {
  size_t offered = 0;    // arrivals the driver handed out
  size_t emitted = 0;    // outcomes that reached the sink
  size_t warmup_n = 0;   // arrivals in the warm-up prefix
  bool truncated = false;
  size_t order_errors = 0;   // outcomes out of timestamp order
  size_t not_processed = 0;  // outcomes with a shed/degraded disposition
  double warmup_s = 0.0;
  double steady_s = 0.0;
  double steady_cpu_s = 0.0;
  std::vector<double> latency;  // per timestamp, handout -> sink
  std::vector<MatchPair> matches;
  uint64_t emitted_digest = kFnvBasis;
  uint64_t matchset_digest = 0;
  PruneStats warm_stats;
  PruneStats end_stats;
  LatencyStats sched;  // scheduler service times of the steady segment
  ShedStats shed;
  std::vector<int64_t> absorb_at;  // arrival count before each absorb
  std::vector<double> absorb_s;
  bool absorb_ok = true;
  std::vector<int64_t> arrived_rids;  // filled only when truncated

  size_t steady_n() const { return emitted - std::min(emitted, warmup_n); }
};

/// Replays `arrivals` of the round's stream through `setup->pipeline`: a
/// warm-up segment (the first quarter), then the steady segments,
/// separated by repository absorbs on write workloads. Outcomes feed the
/// order check, the latency samples, the match digest and — when `rec` is
/// enabled — one span per batch (child of `parent`, the round) and per
/// arrival, with the arrival's phase durations as children.
PassResult RunPass(const Experiment& exp, const Workload& wl, size_t arrivals,
                   Setup* setup, SpanRecorder* rec, int64_t parent,
                   double deadline) {
  PassResult pass;
  TimedDriver driver({exp.incomplete_a(), exp.incomplete_b()}, deadline);
  const size_t total = std::min(arrivals, driver.total());
  const auto batch = static_cast<size_t>(wl.batch_size);
  // The warm-up prefix is a quarter of the round and at least 2w arrivals:
  // each of the two streams has a window of w, so only then are both
  // windows full and expiring tuples. Rounds too short for that (tiny
  // runs) warm up for half their arrivals. The prefix is a whole number of
  // batches, so the segment split changes no batch.
  size_t warmup = std::max(total / 4, 2 * static_cast<size_t>(wl.w));
  if (warmup >= total) warmup = total / 2;
  pass.warmup_n = std::max<size_t>(batch, warmup / batch * batch);
  pass.latency.assign(total, 0.0);

  std::vector<size_t> cuts = {pass.warmup_n, total};
  if (wl.absorb_every > 0) {
    for (size_t c = wl.absorb_every; c < total; c += wl.absorb_every) {
      cuts.push_back(c);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::unordered_map<int64_t, const Record*> complete_by_rid;
  if (wl.absorb_every > 0) {
    for (const Record& r : exp.dataset().source_a) complete_by_rid[r.rid] = &r;
    for (const Record& r : exp.dataset().source_b) complete_by_rid[r.rid] = &r;
  }

  ErPipeline& pipeline = *setup->pipeline;
  int64_t expected_ts = 0;
  int64_t batch_span = -1;
  auto sink = [&](ArrivalOutcome&& o) {
    const double t = Now();
    const int64_t ts = o.timestamp;
    if (ts != expected_ts || ts < 0 || ts >= static_cast<int64_t>(total)) {
      ++pass.order_errors;
      return;
    }
    ++expected_ts;
    ++pass.emitted;
    if (o.disposition != ArrivalDisposition::kProcessed) {
      ++pass.not_processed;
    }
    const double start = driver.handout(ts);
    pass.latency[ts] = t - start;
    for (const MatchPair& m : o.new_matches) {
      FnvPair(&pass.emitted_digest, m);
      pass.matches.push_back(m);
    }
    if (!rec->enabled()) {
      return;
    }
    if (ts == driver.batch_first(ts)) {
      batch_span = rec->Add(parent, "stream.batch", ts, start, t);
    }
    if (ts == driver.batch_last(ts)) {
      rec->SetEnd(batch_span, t);
    }
    const terids::CostBreakdown& c = o.cost;
    const int64_t arrival = rec->Add(batch_span, "core.arrival", ts, start, t);
    rec->Add(arrival, "index.cdd_select", ts, start,
             start + c.cdd_select_seconds);
    rec->Add(arrival, "imputation.impute", ts, start,
             start + c.impute_seconds);
    const int64_t er =
        rec->Add(arrival, "er.er", ts, start, start + c.er_seconds);
    rec->Add(er, "synopsis.candidate", ts, start,
             start + c.candidate_seconds);
    rec->Add(er, "er.refine", ts, start, start + c.refine_seconds);
    rec->Add(arrival, "stream.maintain", ts, start,
             start + c.maintain_seconds);
  };

  const double t_start = Now();
  double t_steady = t_start;
  double cpu_steady = CpuSeconds();
  size_t done = 0;
  for (size_t cut : cuts) {
    const size_t want = cut - done;
    const size_t got = pipeline.ProcessStream(&driver, want, batch, sink);
    done += got;
    if (got < want) {
      pass.truncated = true;
      break;
    }
    if (cut == total) {
      break;
    }
    if (cut == pass.warmup_n) {
      t_steady = Now();
      pass.warmup_s = t_steady - t_start;
      pass.warm_stats = pipeline.cumulative_stats();
      pipeline.ConsumeSchedulerLatencies();  // discard warm-up service times
      cpu_steady = CpuSeconds();
    }
    if (wl.absorb_every > 0 &&
        cut % static_cast<size_t>(wl.absorb_every) == 0) {
      // The complete versions of the most recent arrivals: tuples the
      // stream has delivered but R does not hold yet.
      std::vector<Record> fresh;
      for (size_t k = 0; k < static_cast<size_t>(wl.absorb_size) && k < cut;
           ++k) {
        fresh.push_back(*complete_by_rid.at(
            driver.rid(static_cast<int64_t>(cut - 1 - k))));
      }
      auto* engine = dynamic_cast<terids::TerIdsEngine*>(&pipeline);
      TERIDS_CHECK(engine != nullptr);
      const double a0 = Now();
      const bool ok = engine->AbsorbRepositoryBatch(fresh).ok();
      const double a1 = Now();
      pass.absorb_ok = pass.absorb_ok && ok;
      pass.absorb_at.push_back(static_cast<int64_t>(cut));
      pass.absorb_s.push_back(a1 - a0);
      rec->Add(parent, "repo.absorb",
               static_cast<int64_t>(pass.absorb_s.size()), a0, a1);
    }
  }
  const double t_end = Now();
  pass.offered = static_cast<size_t>(driver.emitted());
  if (done <= pass.warmup_n) {
    // Truncated inside the warm-up prefix: no steady segment to report.
    pass.warmup_s = t_end - t_start;
    t_steady = t_end;
    pass.warm_stats = pipeline.cumulative_stats();
  }
  pass.steady_s = t_end - t_steady;
  pass.steady_cpu_s = CpuSeconds() - cpu_steady;
  pass.end_stats = pipeline.cumulative_stats();
  pass.sched = pipeline.ConsumeSchedulerLatencies();
  if (const ShedStats* shed = pipeline.shed_stats()) {
    pass.shed = *shed;
  }
  pass.matchset_digest = MatchSetDigest(pipeline);
  if (pass.truncated) {
    for (size_t ts = 0; ts < pass.emitted; ++ts) {
      pass.arrived_rids.push_back(driver.rid(static_cast<int64_t>(ts)));
    }
  }
  return pass;
}

/// Same-stream replay through the serial operator (batch 1, no scheduler)
/// over the first `arrivals`; returns {emitted digest, MatchSet digest}.
std::pair<uint64_t, uint64_t> SerialTwinDigests(const Experiment& exp,
                                                size_t arrivals) {
  EngineConfig config = exp.MakeConfig();
  config.batch_size = 1;
  config.refine_threads = 1;
  config.sched_threads = 0;
  SpanRecorder off(false);
  Setup twin = RunSetup(exp, config, &off, -1, 0);
  StreamDriver driver({exp.incomplete_a(), exp.incomplete_b()});
  uint64_t emitted = kFnvBasis;
  twin.pipeline->ProcessStream(&driver, arrivals, 1, [&](ArrivalOutcome&& o) {
    for (const MatchPair& m : o.new_matches) {
      FnvPair(&emitted, m);
    }
  });
  return {emitted, MatchSetDigest(*twin.pipeline)};
}

// ---------------------------------------------------------------------------
// Pooling rounds into metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Names of the spans recorded once per arrival (keyed by timestamp).
bool IsArrivalSpan(const char* name) {
  static const char* const kNames[] = {
      "core.arrival", "index.cdd_select",   "imputation.impute", "er.er",
      "synopsis.candidate", "er.refine", "stream.maintain"};
  for (const char* n : kNames) {
    if (std::strcmp(name, n) == 0) return true;
  }
  return false;
}

/// End-to-end accumulators over rounds. Each round is one repetition of
/// the workload on its own dataset. Throughput and CPU per arrival pool
/// the steady segments of all rounds, latency quantiles pool their
/// arrivals, and warmup_s is the mean warm-up prefix: per-dataset cost is
/// skewed (a minority of drawn datasets impute about twice as fast as the
/// rest), and these pooled figures vary less between seeds than a median
/// over a dozen rounds does.
struct EndToEnd {
  size_t offered = 0;
  size_t emitted = 0;
  size_t not_processed = 0;
  // Steady arrivals, wall seconds and CPU seconds, summed over rounds.
  double steady_n = 0.0, steady_s = 0.0, steady_cpu_s = 0.0;
  std::vector<double> warmup_s;
  // Every round's steady latencies, pooled: a round's own p99 rests on the
  // few dozen heaviest arrivals of one dataset and swings by up to 4x
  // between datasets, while the pooled tail averages over all of them.
  std::vector<double> latency;
  double last_p50_s = 0.0, last_p99_s = 0.0;  // of the latest round
  std::vector<double> setup_s;  // every set-up repetition of every round
  size_t true_positives = 0;
  size_t returned = 0;
  size_t truth = 0;

  void AddRound(const PassResult& pass, const std::vector<Setup>& setups,
                const terids::PrecisionRecall& accuracy) {
    offered += pass.offered;
    emitted += pass.emitted;
    not_processed += pass.not_processed;
    const auto n = static_cast<double>(pass.steady_n());
    const std::vector<double> round_latency(
        pass.latency.begin() +
            static_cast<std::ptrdiff_t>(std::min(pass.warmup_n, pass.emitted)),
        pass.latency.begin() + static_cast<std::ptrdiff_t>(pass.emitted));
    steady_n += n;
    steady_s += pass.steady_s;
    steady_cpu_s += pass.steady_cpu_s;
    warmup_s.push_back(pass.warmup_s);
    last_p50_s = Quantile(round_latency, 0.5);
    last_p99_s = Quantile(round_latency, 0.99);
    latency.insert(latency.end(), round_latency.begin(), round_latency.end());
    for (const Setup& s : setups) setup_s.push_back(s.total_s());
    true_positives += accuracy.true_positives;
    returned += accuracy.returned;
    truth += accuracy.truth_size;
  }

  /// Micro-averaged F-score over every round's matches.
  double f_score() const {
    const double p = Ratio(true_positives, returned);
    const double r = Ratio(true_positives, truth);
    return Ratio(2.0 * p * r, p + r);
  }

  std::vector<Metric> Metrics(size_t attempted, size_t failed) const {
    return {
        {"steady_aps", Ratio(steady_n, steady_s), "arrivals/s"},
        {"warmup_s", Mean(warmup_s), "s"},
        {"latency_p50_ms", Quantile(latency, 0.5) * 1e3, "ms"},
        {"latency_p99_ms", Quantile(latency, 0.99) * 1e3, "ms"},
        {"cpu_ms_per_arrival", Ratio(steady_cpu_s, steady_n) * 1e3, "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"f_score", f_score(), "ratio"},
        {"done_frac", 1.0 - Ratio(failed, attempted), "ratio"},
    };
  }
};

/// Per-layer accumulators, summed over rounds from the traced pass's spans
/// and the engine's counters, over steady arrivals (timestamp >= the
/// round's warm-up prefix) unless a metric says otherwise.
struct Layers {
  std::vector<double> load_s, pivot_s, mine_s, index_s;
  std::unordered_map<std::string, double> steady_sum;  // by span name
  size_t steady_arrivals = 0;
  std::vector<double> steady_impute;
  PruneStats delta;
  size_t steady_n = 0;
  double steady_s = 0.0;
  double service_s = 0.0;
  double busy_capacity_s = 0.0;  // steady wall x thread budget
  double items[terids::kNumExecPhases] = {0, 0, 0, 0};
  double phase_service_s[terids::kNumExecPhases] = {0, 0, 0, 0};
  std::vector<double> absorb_s;
  std::vector<double> pre_absorb_impute, post_absorb_impute;
  size_t untraced_n = 0;
  double untraced_s = 0.0;

  void AddRound(const Workload& wl, const std::vector<Setup>& setups,
                const PassResult& pass, const SpanRecorder& rec,
                size_t first_span, const PassResult& untraced) {
    for (const Setup& s : setups) {
      load_s.push_back(s.load_s);
      pivot_s.push_back(s.pivot_s);
      mine_s.push_back(s.mine_s);
      index_s.push_back(s.index_s);
    }
    const auto steady_from = static_cast<int64_t>(pass.warmup_n);
    std::vector<double> impute_by_ts(pass.latency.size(), 0.0);
    for (size_t i = first_span; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      if (!IsArrivalSpan(s.name)) continue;
      const bool impute = std::strcmp(s.name, "imputation.impute") == 0;
      if (impute) {
        impute_by_ts[static_cast<size_t>(s.key)] = s.seconds();
      }
      if (s.key < steady_from) continue;
      steady_sum[s.name] += s.seconds();
      if (std::strcmp(s.name, "core.arrival") == 0) ++steady_arrivals;
      if (impute) steady_impute.push_back(s.seconds());
    }

    const PruneStats& e = pass.end_stats;
    const PruneStats& w = pass.warm_stats;
    delta.total_pairs += e.total_pairs - w.total_pairs;
    delta.topic_pruned += e.topic_pruned - w.topic_pruned;
    delta.sim_ub_pruned += e.sim_ub_pruned - w.sim_ub_pruned;
    delta.prob_ub_pruned += e.prob_ub_pruned - w.prob_ub_pruned;
    delta.instance_pruned += e.instance_pruned - w.instance_pruned;
    delta.refined += e.refined - w.refined;
    delta.matched += e.matched - w.matched;
    delta.sig_probes += e.sig_probes - w.sig_probes;
    delta.sig_rejects += e.sig_rejects - w.sig_rejects;
    steady_n += pass.steady_n();
    steady_s += pass.steady_s;

    for (int p = 0; p < terids::kNumExecPhases; ++p) {
      const terids::LatencyHistogram& h =
          pass.sched.of(static_cast<ExecPhase>(p));
      const double phase_s = h.mean_seconds() * static_cast<double>(h.count());
      items[p] += static_cast<double>(h.count());
      phase_service_s[p] += phase_s;
      service_s += phase_s;
    }
    busy_capacity_s += pass.steady_s * wl.thread_budget();

    // Imputation cost over the w arrivals right after each absorb, against
    // the w arrivals right before it.
    const auto window = static_cast<size_t>(wl.w);
    for (size_t i = 0; i < pass.absorb_at.size(); ++i) {
      absorb_s.push_back(pass.absorb_s[i]);
      const auto c = static_cast<size_t>(pass.absorb_at[i]);
      for (size_t ts = c >= window ? c - window : 0; ts < c; ++ts) {
        pre_absorb_impute.push_back(impute_by_ts[ts]);
      }
      for (size_t ts = c; ts < std::min(c + window, pass.emitted); ++ts) {
        post_absorb_impute.push_back(impute_by_ts[ts]);
      }
    }
    untraced_n += untraced.steady_n();
    untraced_s += untraced.steady_s;
  }

  std::vector<Metric> Metrics(const Workload& wl, bool* ledger_ok) {
    std::vector<Metric> m;
    m.push_back({"pivot.select_s", Median(pivot_s), "s"});
    m.push_back({"rules.mine_s", Median(mine_s), "s"});
    m.push_back({"repo.load_s", Median(load_s), "s"});
    m.push_back({"index.build_s", Median(index_s), "s"});
    auto mean_us = [&](const char* name) {
      return Ratio(steady_sum[name], steady_arrivals) * 1e6;
    };
    const double cdd = mean_us("index.cdd_select");
    const double imp = mean_us("imputation.impute");
    const double er = mean_us("er.er");
    const double maint = mean_us("stream.maintain");
    const double arrival = mean_us("core.arrival");
    m.push_back({"index.cdd_select_us", cdd, "us"});
    m.push_back({"imputation.impute_us", imp, "us"});
    m.push_back({"imputation.impute_p99_us",
                 Quantile(steady_impute, 0.99) * 1e6, "us"});
    m.push_back({"synopsis.candidate_us", mean_us("synopsis.candidate"),
                 "us"});
    m.push_back({"er.refine_us", mean_us("er.refine"), "us"});
    m.push_back({"er.er_us", er, "us"});
    m.push_back({"stream.maintain_us", maint, "us"});
    m.push_back({"core.arrival_us", arrival, "us"});
    // The arrival span minus its additive phases (candidate and refine sit
    // inside er): tuple build, topic classification and the operator's own
    // bookkeeping. On serial workloads the span is exactly the engine's
    // work on one arrival, so phases + unaccounted == span by construction
    // and a negative residual would mean the phase timers double-count.
    // On batched workloads the span is the whole batch's, shared by its
    // arrivals, so no residual is reported there.
    const double unaccounted = arrival - (cdd + imp + er + maint);
    *ledger_ok = !wl.serial() || unaccounted >= 0.0;
    m.push_back(
        {"core.unaccounted_us", wl.serial() ? unaccounted : 0.0, "us"});

    const auto n = static_cast<double>(steady_n);
    const auto pairs = static_cast<double>(delta.total_pairs);
    m.push_back({"er.pairs_per_arrival", Ratio(pairs, n), "count"});
    m.push_back(
        {"er.topic_pruned_frac", Ratio(delta.topic_pruned, pairs), "ratio"});
    m.push_back(
        {"er.sim_ub_pruned_frac", Ratio(delta.sim_ub_pruned, pairs), "ratio"});
    m.push_back({"er.prob_ub_pruned_frac", Ratio(delta.prob_ub_pruned, pairs),
                 "ratio"});
    m.push_back({"er.instance_pruned_frac",
                 Ratio(delta.instance_pruned, pairs), "ratio"});
    m.push_back({"er.refined_frac", Ratio(delta.refined, pairs), "ratio"});
    m.push_back({"er.match_per_refined",
                 Ratio(delta.matched, delta.refined), "ratio"});
    m.push_back({"text.sig_probes_per_arrival", Ratio(delta.sig_probes, n),
                 "count"});
    m.push_back({"text.sig_reject_frac",
                 Ratio(delta.sig_rejects, delta.sig_probes), "ratio"});

    for (int p = 0; p < terids::kNumExecPhases; ++p) {
      const std::string tag = terids::ExecPhaseName(static_cast<ExecPhase>(p));
      m.push_back({"exec.items." + tag, items[p], "count"});
      m.push_back({"exec.service_ms." + tag, phase_service_s[p] * 1e3, "ms"});
    }
    m.push_back({"exec.busy_frac", Ratio(service_s, busy_capacity_s), "ratio"});

    m.push_back({"repo.absorb_ms", Median(absorb_s) * 1e3, "ms"});
    m.push_back({"imputation.pre_absorb_impute_us",
                 Mean(pre_absorb_impute) * 1e6, "us"});
    m.push_back({"imputation.post_absorb_impute_us",
                 Mean(post_absorb_impute) * 1e6, "us"});

    const double traced_aps = Ratio(steady_n, steady_s);
    m.push_back({"trace.steady_aps", traced_aps, "arrivals/s"});
    m.push_back({"trace.overhead_ratio",
                 Ratio(traced_aps, Ratio(untraced_n, untraced_s)), "ratio"});
    return m;
  }
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& x : metrics) {
    std::printf("%-36s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

/// Named output checks, AND-ed over rounds.
class Checks {
 public:
  void Expect(const std::string& name, bool ok) {
    auto [it, inserted] = checks_.emplace(name, ok);
    if (!inserted) it->second = it->second && ok;
  }
  bool all() const {
    for (const auto& c : checks_) {
      if (!c.second) return false;
    }
    return true;
  }
  std::string Json() const {
    std::string out;
    for (const auto& [name, ok] : checks_) {
      out += (out.empty() ? "{\"" : ", \"") + name + "\": " +
             (ok ? "true" : "false");
    }
    return out + "}";
  }

 private:
  std::map<std::string, bool> checks_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: terids_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size full|tiny] "
                 "[--trace-out <path>]\n");
    return 2;
  }
  const Workload* chosen = nullptr;
  const std::vector<Workload> workloads = AllWorkloads();
  for (const Workload& w : workloads) {
    if (args.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Workload wl = *chosen;
  if (args.tiny) {
    wl.scale /= kTinyDivisor;
    wl.round_arrivals /= kTinyDivisor;
    wl.absorb_every /= kTinyDivisor;
    wl.absorb_size = std::max(1, wl.absorb_size / kTinyDivisor);
    wl.rounds = std::min(wl.rounds, 2);
  }
  if (args.trace) {
    // A traced round replays its stream twice (untraced reference, then
    // traced), so half the rounds keep a traced run as long as an
    // untraced one.
    wl.rounds = std::max(1, wl.rounds / 2);
  }
  const int setup_reps = args.tiny ? 1 : wl.setup_reps;
  // Per-pass cap on the stream. A round's pass takes a few seconds on the
  // reference machine, so the cap only cuts a pathologically slow build
  // short (the F-score is then judged on the prefix that ran).
  const double pass_cap = args.seconds;

  SpanRecorder rec(args.trace);
  Checks checks;
  EndToEnd e2e;
  Layers layers;
  std::string round_facts;
  const double run_start = Now();
  for (int round = 0; round < wl.rounds; ++round) {
    // --- Load generator: this round's inputs, never timed. -------------
    ExperimentParams params;
    params.scale = wl.scale;
    params.w = wl.w;
    params.xi = wl.xi;
    params.eta = wl.eta;
    params.topics_in_query = wl.topics;
    params.max_arrivals = wl.round_arrivals;
    params.seed = RoundSeed(args.seed, round);
    params.batch_size = wl.batch_size;
    params.refine_threads = wl.refine_threads;
    params.sched_threads = wl.sched_threads;
    const double gen_start = Now();
    const Experiment exp(terids::ProfileByName(wl.profile), params);
    const double gen_s = Now() - gen_start;
    const EngineConfig config = exp.MakeConfig();
    const auto arrivals = static_cast<size_t>(wl.round_arrivals);

    // --- Tracing-overhead reference: the same pass with spans off. ------
    PassResult untraced;
    if (args.trace) {
      SpanRecorder off(false);
      Setup ref = RunSetup(exp, config, &off, -1, 0);
      untraced = RunPass(exp, wl, arrivals, &ref, &off, -1, Now() + pass_cap);
    }

    // --- Set-up, repeated; the last one runs the stream. ----------------
    const double round_start = Now();
    const int64_t round_span =
        rec.Add(-1, "round", round, round_start, round_start);
    std::vector<Setup> setups;
    for (int rep = 0; rep < setup_reps; ++rep) {
      if (!setups.empty()) {
        setups.back().pipeline.reset();  // one engine alive at a time
        setups.back().repo.reset();
      }
      setups.push_back(RunSetup(exp, config, &rec, round_span, rep));
    }
    const size_t first_span = rec.spans().size();
    const PassResult pass = RunPass(exp, wl, arrivals, &setups.back(), &rec,
                                    round_span, Now() + pass_cap);
    rec.SetEnd(round_span, Now());

    // --- Output checks. -------------------------------------------------
    checks.Expect("one_outcome_per_arrival_in_order",
                  pass.order_errors == 0 && pass.emitted == pass.offered);
    checks.Expect("all_processed", pass.not_processed == 0);
    checks.Expect("no_shed_or_deferred",
                  pass.shed.shed_arrivals == 0 && pass.shed.shed_pairs == 0 &&
                      pass.shed.deferred_pairs == 0 &&
                      pass.end_stats.deferred == 0);
    bool rules_ok = true;
    for (const Setup& s : setups) rules_ok = rules_ok && s.rules_match;
    checks.Expect("setup_rules_match_offline_mining", rules_ok);
    checks.Expect("absorbs_ok", pass.absorb_ok);
    std::vector<terids::GroundTruthPair> truth = exp.effective_truth();
    if (pass.truncated) {
      // Judge only the prefix that ran: a truth pair counts once both of
      // its records have arrived.
      const std::unordered_set<int64_t> arrived(pass.arrived_rids.begin(),
                                                pass.arrived_rids.end());
      truth.erase(std::remove_if(truth.begin(), truth.end(),
                                 [&](const terids::GroundTruthPair& p) {
                                   return arrived.count(p.rid_a) == 0 ||
                                          arrived.count(p.rid_b) == 0;
                                 }),
                  truth.end());
    }
    const terids::PrecisionRecall accuracy =
        terids::ComputeFScore(pass.matches, truth);
    checks.Expect("f_score_present",
                  std::isfinite(accuracy.f_score) && accuracy.f_score > 0.0);
    if (wl.check_serial_twin && round == 0) {
      const auto twin = SerialTwinDigests(exp, pass.emitted);
      checks.Expect("matches_equal_serial_twin",
                    twin.first == pass.emitted_digest &&
                        twin.second == pass.matchset_digest);
    }

    e2e.AddRound(pass, setups, accuracy);
    if (args.trace) {
      layers.AddRound(wl, setups, pass, rec, first_span, untraced);
    }
    char facts[384];
    std::snprintf(facts, sizeof(facts),
                  "%s{\"seed\": %llu, \"arrivals\": %zu, \"cdds\": %zu, "
                  "\"gen_s\": %.3f, \"steady_arrivals\": %zu, "
                  "\"steady_aps\": %.1f, \"warmup_s\": %.3f, "
                  "\"p50_ms\": %.4f, \"p99_ms\": %.3f, "
                  "\"truncated\": %s, \"emitted_digest\": "
                  "\"%016llx\", \"matchset_digest\": \"%016llx\"}",
                  round == 0 ? "" : ", ",
                  static_cast<unsigned long long>(params.seed), pass.emitted,
                  exp.cdds().size(), gen_s, pass.steady_n(),
                  Ratio(pass.steady_n(), pass.steady_s), pass.warmup_s,
                  e2e.last_p50_s * 1e3, e2e.last_p99_s * 1e3,
                  pass.truncated ? "true" : "false",
                  static_cast<unsigned long long>(pass.emitted_digest),
                  static_cast<unsigned long long>(pass.matchset_digest));
    round_facts += facts;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    bool ledger_ok = true;
    metrics = layers.Metrics(wl, &ledger_ok);
    checks.Expect("ledger_closes", ledger_ok);
    if (!args.trace_out.empty()) {
      checks.Expect("trace_written", rec.WriteJsonLines(args.trace_out));
    }
  }
  const bool correct = checks.all();
  const size_t attempted = std::max<size_t>(e2e.offered, 1);
  // Arrivals with no outcome (shed before ingest) or with a shed or
  // degraded one; a failed check fails every arrival of the run.
  size_t failed =
      e2e.offered - std::min(e2e.offered, e2e.emitted) + e2e.not_processed;
  if (!correct) {
    failed = attempted;
  }
  failed = std::min(failed, attempted);
  if (!args.trace) {
    metrics = e2e.Metrics(attempted, failed);
  }

  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"size\": "
              "\"%s\", \"trace\": %d, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"hardware_threads\": %u, "
              "\"threads\": %d, \"setup_reps\": %d, "
              "\"run_s\": %.3f, \"rounds\": [%s], \"checks\": %s}\n",
              wl.name, static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", args.trace ? 1 : 0, kCompiler,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              wl.thread_budget(), setup_reps, Now() - run_start, round_facts.c_str(),
              checks.Json().c_str());
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
