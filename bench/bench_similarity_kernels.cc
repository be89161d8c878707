// Similarity-kernel microbenchmarks + the refine-phase end-to-end effect of
// the flat token arena and the signature-bounded Jaccard kernel (DESIGN.md
// §9, §11). Not a paper figure — this tracks the refinement hot path the
// TokenSet header has always called "the hot path of the whole system".
//
// Section 1 (intersection): linear merge vs galloping vs the 64-bit
// signature reject, with skip rate and signature-saturation columns (mean
// fill %, % of signatures > 75% full) — on synthetic sorted token sets at
// several size-skew shapes, with a correctness oracle (all algorithms must
// agree; the signature bound must dominate the exact count).
// Section 1b (batched filter): SigFilterCandidates' one-sweep SoA popcount
// pass vs the equivalent per-pair loop, stamped with the active SIMD
// dispatch (avx2 / neon / scalar).
// Section 2 (layout): per-attribute Jaccard sums over real imputed tuples
// read through heap TokenSets (instance_tokens) vs flat arena views
// (instance_token_view) — the locality payoff in isolation.
// Section 3 (end-to-end): full TER-iDS runs per profile with the signature
// filter off vs on; identical matches / MatchSet / outcome PruneStats are
// asserted (the filter may only skip merges), and the refine-phase seconds
// plus the saturation / skip rates are the reported effect.
//
// Each section ends in a computed verdict line (bench::PrintVerdict) that
// checks its claim against the numbers just printed.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/profiles.h"
#include "er/similarity.h"
#include "text/similarity_kernels.h"
#include "text/token_set.h"
#include "tuple/imputed_tuple.h"
#include "util/stopwatch.h"

namespace {

using namespace terids;
using namespace terids::bench;

std::vector<Token> RandomSortedTokens(std::mt19937_64* rng, size_t len,
                                      Token universe) {
  std::uniform_int_distribution<Token> dist(0, universe);
  std::vector<Token> tokens;
  tokens.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    tokens.push_back(dist(*rng));
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

struct SetPair {
  std::vector<Token> a;
  std::vector<Token> b;
  uint64_t sig_a = 0;
  uint64_t sig_b = 0;
};

/// A probed signature counts as saturated above this many set bits (3/4 of
/// 64), the threshold SigFilterCounters uses.
constexpr int kSaturatedBits = 48;

}  // namespace

int main() {
  JsonReporter reporter("similarity_kernels");
  const ExecKnobs env_knobs = BenchExecKnobs();

  // --- Section 1: intersection algorithm throughput -----------------------
  std::printf("==== similarity_kernels: merge vs gallop vs signature ====\n");
  std::printf("(SIMD dispatch: %s)\n", SimdDispatchName());
  std::printf("\n-- intersection: 20k random pairs per shape, 5 rounds --\n");
  std::printf("%15s %11s %11s %11s %14s %8s %8s %8s\n", "|small|x|large|",
              "merge M/s", "gallop M/s", "auto M/s", "sig-reject M/s",
              "skip %", "fill %", ">75% %");
  std::mt19937_64 rng(20210620);
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {8, 8}, {8, 64}, {8, 512}, {64, 64}, {64, 1024}, {4, 4096}};
  const int pairs_per_shape = 2000;
  const int rounds = 5;
  // Merge vs gallop at the most skewed shape, for the verdict.
  double skewed_merge_mps = 0.0;
  double skewed_gallop_mps = 0.0;
  for (const auto& [small, large] : shapes) {
    std::vector<SetPair> pairs(pairs_per_shape);
    for (SetPair& p : pairs) {
      // Universe sized for partial overlap so neither algorithm gets a
      // degenerate all-common or all-disjoint workload.
      const Token universe = static_cast<Token>(4 * large);
      p.a = RandomSortedTokens(&rng, small, universe);
      p.b = RandomSortedTokens(&rng, large, universe);
      p.sig_a = TokenSignature(p.a.data(), p.a.size());
      p.sig_b = TokenSignature(p.b.data(), p.b.size());
    }
    const double total =
        static_cast<double>(pairs.size()) * static_cast<double>(rounds);
    size_t sink_linear = 0;
    Stopwatch w_linear;
    for (int r = 0; r < rounds; ++r) {
      for (const SetPair& p : pairs) {
        sink_linear +=
            IntersectLinear(p.a.data(), p.a.size(), p.b.data(), p.b.size());
      }
    }
    const double s_linear = w_linear.ElapsedSeconds();
    size_t sink_gallop = 0;
    Stopwatch w_gallop;
    for (int r = 0; r < rounds; ++r) {
      for (const SetPair& p : pairs) {
        sink_gallop +=
            IntersectGallop(p.a.data(), p.a.size(), p.b.data(), p.b.size());
      }
    }
    const double s_gallop = w_gallop.ElapsedSeconds();
    size_t sink_auto = 0;
    Stopwatch w_auto;
    for (int r = 0; r < rounds; ++r) {
      for (const SetPair& p : pairs) {
        sink_auto +=
            IntersectSize(p.a.data(), p.a.size(), p.b.data(), p.b.size());
      }
    }
    const double s_auto = w_auto.ElapsedSeconds();
    if (sink_linear != sink_gallop || sink_linear != sink_auto) {
      std::fprintf(stderr,
                   "FATAL: intersection algorithms disagree (shape %zux%zu)\n",
                   small, large);
      return 1;
    }
    // Signature reject: the O(1) bound, falling back to the exact merge
    // only when the bound cannot decide "empty" — the filter-then-verify
    // shape refinement uses (here with threshold 0: reject iff provably
    // disjoint). Saturation columns report the popcount distribution of the
    // probed signatures: mean fill (popcount / 64) and the fraction above
    // the 75% saturation threshold — the regime where the bound loosens.
    size_t sink_sig = 0;
    size_t skipped = 0;
    Stopwatch w_sig;
    for (int r = 0; r < rounds; ++r) {
      for (const SetPair& p : pairs) {
        if (SigIntersectionUpperBound(p.a.size(), p.sig_a, p.b.size(),
                                      p.sig_b) == 0) {
          ++skipped;
          continue;
        }
        sink_sig +=
            IntersectSize(p.a.data(), p.a.size(), p.b.data(), p.b.size());
      }
    }
    const double s_sig = w_sig.ElapsedSeconds();
    if (sink_sig != sink_linear) {
      std::fprintf(stderr, "FATAL: signature reject changed a result\n");
      return 1;
    }
    // Saturation distribution over both sides' signatures (one probe per
    // side, mirroring SigFilterCounters accounting).
    uint64_t fill_sum = 0;
    size_t saturated = 0;
    for (const SetPair& p : pairs) {
      for (const uint64_t sig : {p.sig_a, p.sig_b}) {
        const int pc = PopCount64(sig);
        fill_sum += static_cast<uint64_t>(pc);
        saturated += pc > kSaturatedBits ? 1 : 0;
      }
    }
    const auto mps = [&](double s) { return s > 0 ? total / s / 1e6 : 0.0; };
    const double probes = 2.0 * static_cast<double>(pairs.size());
    const double fill_pct =
        100.0 * static_cast<double>(fill_sum) / (probes * 64.0);
    const double sat_pct = 100.0 * static_cast<double>(saturated) / probes;
    const double skip_pct = 100.0 * static_cast<double>(skipped) / total;
    std::printf("%7zux%-7zu %11.2f %11.2f %11.2f %14.2f %7.1f%% %7.1f%% "
                "%7.1f%%\n",
                small, large, mps(s_linear), mps(s_gallop), mps(s_auto),
                mps(s_sig), skip_pct, fill_pct, sat_pct);
    std::fflush(stdout);
    skewed_merge_mps = mps(s_linear);
    skewed_gallop_mps = mps(s_gallop);
    reporter.AddKnobRow(env_knobs)
        .Str("section", "intersection")
        .Str("simd", SimdDispatchName())
        .Num("small", static_cast<double>(small))
        .Num("large", static_cast<double>(large))
        .Num("merge_mpairs_per_sec", mps(s_linear))
        .Num("gallop_mpairs_per_sec", mps(s_gallop))
        .Num("auto_mpairs_per_sec", mps(s_auto))
        .Num("sig_reject_mpairs_per_sec", mps(s_sig))
        .Num("sig_skip_pct", skip_pct)
        .Num("sig_fill_pct", fill_pct)
        .Num("sig_saturated_pct", sat_pct);
  }
  char evidence[200];
  std::snprintf(evidence, sizeof(evidence),
                "%zux%zu: gallop %.2f vs merge %.2f M pairs/s",
                shapes.back().first, shapes.back().second, skewed_gallop_mps,
                skewed_merge_mps);
  PrintVerdict("galloping beats the merge at the most skewed shape",
               skewed_gallop_mps > skewed_merge_mps, evidence);

  // --- Section 1b: batched SoA filter vs per-pair loop --------------------
  // The same pass-1 decision (sum of per-attribute Jaccard bounds vs gamma)
  // computed two ways over a synthetic candidate list: one
  // SigFilterCandidates sweep (SIMD-dispatched popcounts over the SoA
  // signature table) vs the scalar per-pair loop the sequential kernel
  // runs. Rows/sec counts candidate pairs (d attributes each) per second.
  {
    std::printf("\n-- batched filter: %s dispatch, 4096 rows x 4 attrs, "
                "20 rounds --\n",
                SimdDispatchName());
    std::printf("%18s %18s %9s %10s\n", "per-pair Mrows/s", "batched Mrows/s",
                "speedup", "survive %");
    const size_t num_rows = 4096;
    const int dim = 4;
    const int batch_rounds = 20;
    const double gamma = 0.35 * dim;
    std::vector<uint32_t> len_a, len_b;
    std::vector<uint64_t> sig_a, sig_b;
    for (size_t i = 0; i < num_rows; ++i) {
      for (int k = 0; k < dim; ++k) {
        const size_t len = 4 + (i * 7 + static_cast<size_t>(k) * 13) % 60;
        const Token universe = k % 2 == 0 ? 96 : 4096;
        const std::vector<Token> a = RandomSortedTokens(&rng, len, universe);
        const std::vector<Token> b = RandomSortedTokens(&rng, len, universe);
        len_a.push_back(static_cast<uint32_t>(a.size()));
        len_b.push_back(static_cast<uint32_t>(b.size()));
        sig_a.push_back(TokenSignature(a.data(), a.size()));
        sig_b.push_back(TokenSignature(b.data(), b.size()));
      }
    }
    SigFilterBatch batch;
    batch.num_pairs = num_rows;
    batch.d = dim;
    batch.len_a = len_a.data();
    batch.len_b = len_b.data();
    batch.sig_a = sig_a.data();
    batch.sig_b = sig_b.data();
    std::vector<uint64_t> survivors((num_rows + 63) / 64);
    size_t batched_count = 0;
    Stopwatch w_batched;
    for (int r = 0; r < batch_rounds; ++r) {
      batched_count = SigFilterCandidates(batch, gamma, survivors.data());
    }
    const double s_batched = w_batched.ElapsedSeconds();
    size_t scalar_count = 0;
    Stopwatch w_scalar;
    for (int r = 0; r < batch_rounds; ++r) {
      scalar_count = 0;
      for (size_t i = 0; i < num_rows; ++i) {
        double total_ub = 0.0;
        for (int k = 0; k < dim; ++k) {
          const size_t e = i * static_cast<size_t>(dim) +
                           static_cast<size_t>(k);
          total_ub +=
              SigJaccardUpperBound(len_a[e], sig_a[e], len_b[e], sig_b[e]);
        }
        scalar_count += total_ub > gamma ? 1 : 0;
      }
    }
    const double s_scalar = w_scalar.ElapsedSeconds();
    if (batched_count != scalar_count) {
      std::fprintf(stderr,
                   "FATAL: batched filter disagrees with per-pair loop "
                   "(%zu vs %zu)\n",
                   batched_count, scalar_count);
      return 1;
    }
    const double row_total =
        static_cast<double>(num_rows) * static_cast<double>(batch_rounds);
    const double scalar_mrps = s_scalar > 0 ? row_total / s_scalar / 1e6
                                            : 0.0;
    const double batched_mrps = s_batched > 0 ? row_total / s_batched / 1e6
                                              : 0.0;
    const double speedup = scalar_mrps > 0 ? batched_mrps / scalar_mrps : 0.0;
    const double survive_pct = 100.0 * static_cast<double>(batched_count) /
                               static_cast<double>(num_rows);
    std::printf("%18.2f %18.2f %8.2fx %9.1f%%\n", scalar_mrps, batched_mrps,
                speedup, survive_pct);
    std::fflush(stdout);
    reporter.AddKnobRow(env_knobs)
        .Str("section", "batched_filter")
        .Str("simd", SimdDispatchName())
        .Num("rows", static_cast<double>(num_rows))
        .Num("d", dim)
        .Num("perpair_mrows_per_sec", scalar_mrps)
        .Num("batched_mrows_per_sec", batched_mrps)
        .Num("survive_pct", survive_pct);
    std::snprintf(evidence, sizeof(evidence),
                  "%.2fx: %.2f vs %.2f M rows/s, %s dispatch", speedup,
                  batched_mrps, scalar_mrps, SimdDispatchName());
    PrintVerdict("the batched sweep beats the per-pair loop",
                 batched_mrps > scalar_mrps, evidence);
  }

  // --- Section 2: arena vs vector layout ----------------------------------
  // Real imputed tuples from a text-heavy profile; the workload is the
  // exact per-attribute Jaccard sum of InstanceSimilarity, read once
  // through the heap TokenSets and once through the flat arena views.
  const std::string layout_dataset = "Citations";
  ExperimentParams layout_params = BaseParams(layout_dataset);
  Experiment layout_experiment(ProfileByName(layout_dataset), layout_params);
  std::unique_ptr<Repository> repo = layout_experiment.BuildRepository();
  std::vector<ImputedTuple> tuples;
  for (const Record& r : layout_experiment.dataset().source_a) {
    if (tuples.size() >= 400) break;
    tuples.push_back(ImputedTuple::FromComplete(r, repo.get()));
  }
  std::printf("\n-- layout: %zu tuples, all-pairs instance similarity --\n",
              tuples.size());
  const int d = repo->num_attributes();
  double sum_vec = 0.0;
  Stopwatch w_vec;
  for (const ImputedTuple& a : tuples) {
    for (const ImputedTuple& b : tuples) {
      double sim = 0.0;
      for (int k = 0; k < d; ++k) {
        sim += JaccardSimilarity(a.instance_tokens(0, k),
                                 b.instance_tokens(0, k));
      }
      sum_vec += sim;
    }
  }
  const double s_vec = w_vec.ElapsedSeconds();
  double sum_arena = 0.0;
  Stopwatch w_arena;
  for (const ImputedTuple& a : tuples) {
    for (const ImputedTuple& b : tuples) {
      sum_arena += InstanceSimilarity(a, 0, b, 0);
    }
  }
  const double s_arena = w_arena.ElapsedSeconds();
  if (sum_vec != sum_arena) {
    std::fprintf(stderr, "FATAL: arena layout changed similarity sums\n");
    return 1;
  }
  const double n_pairs = static_cast<double>(tuples.size()) *
                         static_cast<double>(tuples.size());
  std::printf("%14s %14s %9s\n", "vector Mp/s", "arena Mp/s", "speedup");
  const double vec_mps = s_vec > 0 ? n_pairs / s_vec / 1e6 : 0.0;
  const double arena_mps = s_arena > 0 ? n_pairs / s_arena / 1e6 : 0.0;
  const double layout_speedup = vec_mps > 0 ? arena_mps / vec_mps : 0.0;
  std::printf("%14.3f %14.3f %8.2fx\n", vec_mps, arena_mps, layout_speedup);
  reporter.AddKnobRow(env_knobs)
      .Str("section", "layout")
      .Str("dataset", layout_dataset)
      .Num("pairs", n_pairs)
      .Num("vector_mpairs_per_sec", vec_mps)
      .Num("arena_mpairs_per_sec", arena_mps);
  std::snprintf(evidence, sizeof(evidence), "%.2fx: %.3f vs %.3f M pairs/s",
                layout_speedup, arena_mps, vec_mps);
  PrintVerdict("the arena beats heap TokenSets", arena_mps > vec_mps,
               evidence);

  // --- Section 3: end-to-end refine-phase effect per profile --------------
  std::printf("\n-- end-to-end TER-iDS: signature filter off vs on --\n");
  std::printf("%-10s %16s %16s %9s %8s %8s %8s\n", "dataset", "off ms/ar",
              "on ms/ar", "speedup", "skip %", ">75% %", "matches");
  double min_speedup = 0.0;
  std::string slowest_dataset;
  for (const std::string& dataset : AllDatasets()) {
    ExperimentParams params = BaseParams(dataset);
    Experiment experiment(ProfileByName(dataset), params);
    EngineConfig off_config = experiment.MakeConfig();
    off_config.signature_filter = false;
    PipelineRun off = experiment.Run(PipelineKind::kTerIds, off_config);
    EngineConfig on_config = experiment.MakeConfig();
    on_config.signature_filter = true;
    PipelineRun on = experiment.Run(PipelineKind::kTerIds, on_config);
    // The acceptance contract: the filter skips merges, never changes
    // output. A run violating it must not report numbers as if it passed.
    if (on.stats.matched != off.stats.matched ||
        on.stats.refined != off.stats.refined ||
        on.stats.total_pairs != off.stats.total_pairs ||
        on.final_result_size != off.final_result_size) {
      std::fprintf(stderr, "FATAL: signature filter changed results on %s\n",
                   dataset.c_str());
      return 1;
    }
    const auto refine_ms = [](const PipelineRun& run) {
      return run.arrivals > 0 ? 1e3 * run.total_cost.refine_seconds /
                                    static_cast<double>(run.arrivals)
                              : 0.0;
    };
    const double off_ms = refine_ms(off);
    const double on_ms = refine_ms(on);
    const double speedup = on_ms > 0 ? off_ms / on_ms : 0.0;
    // Pass 1 probes both sides of every attribute of each visited instance
    // pair, so probed pairs = sig_probes / (2 * d) and the skip rate is the
    // fraction of them certified merge-free.
    const int attr_count =
        static_cast<int>(experiment.dataset().source_a.front().values.size());
    const double probed_pairs =
        static_cast<double>(on.stats.sig_probes) / (2.0 * attr_count);
    const double skip_pct =
        probed_pairs > 0 ? 100.0 * static_cast<double>(on.stats.sig_rejects) /
                               probed_pairs
                         : 0.0;
    std::printf("%-10s %16.4f %16.4f %8.2fx %7.1f%% %7.1f%% %8llu\n",
                dataset.c_str(), off_ms, on_ms, speedup, skip_pct,
                on.stats.SigSaturatedPct(),
                static_cast<unsigned long long>(on.stats.matched));
    std::fflush(stdout);
    if (slowest_dataset.empty() || speedup < min_speedup) {
      min_speedup = speedup;
      slowest_dataset = dataset;
    }
    reporter.AddKnobRow(env_knobs)
        .Str("section", "end_to_end")
        .Str("dataset", dataset)
        .Str("simd", SimdDispatchName())
        .Num("refine_ms_per_arrival_sig_off", off_ms)
        .Num("total_ms_per_arrival_sig_off", 1e3 * off.avg_arrival_seconds)
        .Num("refine_ms_per_arrival_sig_on", on_ms)
        .Num("total_ms_per_arrival_sig_on", 1e3 * on.avg_arrival_seconds)
        .Num("sig_skip_pct", skip_pct)
        .Num("sig_saturated_pct", on.stats.SigSaturatedPct())
        .Num("matched", static_cast<double>(off.stats.matched));
  }
  std::printf("\n");
  std::snprintf(evidence, sizeof(evidence),
                "slowest %.2fx on %s; matches and outcome stats identical",
                min_speedup, slowest_dataset.c_str());
  PrintVerdict("the filter speeds up refine on every profile",
               min_speedup > 1.0, evidence);
  return 0;
}
