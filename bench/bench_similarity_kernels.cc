// Similarity-kernel microbenchmarks: the flat token arena and the
// signature-bounded Jaccard kernel (DESIGN.md §9, §11). Not a paper figure
// — this tracks the refinement hot path the TokenSet header has always
// called "the hot path of the whole system".
//
// Section 1 (intersection): linear merge vs galloping vs the 64-bit
// signature reject, with skip rate and signature-saturation columns (mean
// fill %, % of signatures > 75% full) — on synthetic sorted token sets at
// several size-skew shapes, with a correctness oracle (all algorithms must
// agree; the signature bound must dominate the exact count).
// Section 2 (layout): per-attribute Jaccard sums over real imputed tuples
// read through heap TokenSets (instance_tokens) vs flat arena views
// (instance_token_view) — the locality payoff in isolation.
// Section 3 (kernel replay): one TER-iDS run per profile (its match count
// printed), then the sim > gamma verdict over every cross-stream instance
// pair left in its windows, timed through InstanceSimilarityExceeds and
// through InstanceSimilarity > gamma for several rounds; the verdict counts
// must agree, and the speedup is reported as a median with its
// interquartile range.
//
// Each section ends in a computed verdict line (bench::PrintVerdict) that
// checks its claim against the numbers just printed.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/terids_engine.h"
#include "datagen/profiles.h"
#include "er/similarity.h"
#include "stream/stream_driver.h"
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

/// The p-quantile of `v` by nearest rank (v non-empty).
double Quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// One instance pair of the kernel replay.
struct InstancePair {
  const ImputedTuple* a = nullptr;
  int inst_a = 0;
  const ImputedTuple* b = nullptr;
  int inst_b = 0;
};

}  // namespace

int main() {
  JsonReporter reporter("similarity_kernels");
  const ExecKnobs env_knobs = BenchExecKnobs();

  // --- Section 1: intersection algorithm throughput -----------------------
  std::printf("==== similarity_kernels: merge vs gallop vs signature ====\n");
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

  // --- Section 3: kernel replay per profile -------------------------------
  const int kernel_rounds = 7;
  std::printf("\n-- kernel replay: sim > gamma over the window instance pairs "
              "one TER-iDS run leaves, %d rounds --\n",
              kernel_rounds);
  std::printf("%-10s %8s %10s %12s %12s %9s %15s %8s %8s\n", "dataset",
              "matches", "pairs", "exact ms", "kernel ms", "speedup",
              "speedup IQR", "skip %", ">75% %");
  double worst_margin = 0.0;
  std::string worst_dataset;
  double worst_median = 0.0;
  double worst_iqr = 0.0;
  for (const std::string& dataset : AllDatasets()) {
    const ExperimentParams params = BaseParams(dataset);
    Experiment experiment(ProfileByName(dataset), params);
    const EngineConfig config = experiment.MakeConfig();
    std::unique_ptr<Repository> run_repo = experiment.BuildRepository();
    TerIdsEngine engine(run_repo.get(), config, 2, experiment.cdds());
    StreamDriver driver({experiment.incomplete_a(), experiment.incomplete_b()});
    engine.ProcessStream(&driver, static_cast<size_t>(params.max_arrivals),
                         static_cast<size_t>(config.batch_size),
                         [](ArrivalOutcome&&) {});
    const uint64_t matched = engine.cumulative_stats().matched;

    // Cross-stream instance pairs: the pairs the join refines.
    std::vector<InstancePair> inst_pairs;
    for (const auto& wa : engine.window(0).tuples()) {
      for (const auto& wb : engine.window(1).tuples()) {
        for (int ma = 0; ma < wa->tuple->num_instances(); ++ma) {
          for (int mb = 0; mb < wb->tuple->num_instances(); ++mb) {
            inst_pairs.push_back({wa->tuple.get(), ma, wb->tuple.get(), mb});
          }
        }
      }
    }
    const double gamma = config.gamma;
    std::vector<double> exact_ms;
    std::vector<double> kernel_ms;
    std::vector<double> speedups;
    SigFilterCounters sig;
    for (int r = 0; r < kernel_rounds; ++r) {
      size_t kernel_true = 0;
      size_t exact_true = 0;
      double s_kernel = 0.0;
      double s_exact = 0.0;
      const auto time_kernel = [&] {
        SigFilterCounters round_sig;
        Stopwatch w;
        for (const InstancePair& p : inst_pairs) {
          kernel_true += InstanceSimilarityExceeds(*p.a, p.inst_a, *p.b,
                                                   p.inst_b, gamma, &round_sig)
                             ? 1
                             : 0;
        }
        s_kernel = w.ElapsedSeconds();
        sig = round_sig;
      };
      const auto time_exact = [&] {
        Stopwatch w;
        for (const InstancePair& p : inst_pairs) {
          exact_true +=
              InstanceSimilarity(*p.a, p.inst_a, *p.b, p.inst_b) > gamma ? 1
                                                                          : 0;
        }
        s_exact = w.ElapsedSeconds();
      };
      // Alternate the order so neither side always runs on a warm cache.
      if (r % 2 == 0) {
        time_kernel();
        time_exact();
      } else {
        time_exact();
        time_kernel();
      }
      if (kernel_true != exact_true) {
        std::fprintf(stderr,
                     "FATAL: signature kernel changed a verdict on %s "
                     "(%zu vs %zu)\n",
                     dataset.c_str(), kernel_true, exact_true);
        return 1;
      }
      exact_ms.push_back(1e3 * s_exact);
      kernel_ms.push_back(1e3 * s_kernel);
      speedups.push_back(s_kernel > 0 ? s_exact / s_kernel : 0.0);
    }
    const double median = Quantile(speedups, 0.50);
    const double q1 = Quantile(speedups, 0.25);
    const double q3 = Quantile(speedups, 0.75);
    const double probed = static_cast<double>(inst_pairs.size());
    const double skip_pct =
        probed > 0 ? 100.0 * static_cast<double>(sig.rejects) / probed : 0.0;
    const double sat_pct =
        sig.probes > 0 ? 100.0 * static_cast<double>(sig.saturated) /
                             static_cast<double>(sig.probes)
                       : 0.0;
    char iqr[32];
    std::snprintf(iqr, sizeof(iqr), "%.2f-%.2fx", q1, q3);
    std::printf("%-10s %8llu %10zu %12.3f %12.3f %8.2fx %15s %7.1f%% "
                "%7.1f%%\n",
                dataset.c_str(), static_cast<unsigned long long>(matched),
                inst_pairs.size(), Quantile(exact_ms, 0.50),
                Quantile(kernel_ms, 0.50), median, iqr, skip_pct, sat_pct);
    std::fflush(stdout);
    // How far the median sits below parity beyond its own spread; > 0 means
    // the kernel measurably loses on this profile.
    const double margin = (1.0 - median) - (q3 - q1);
    if (worst_dataset.empty() || margin > worst_margin) {
      worst_margin = margin;
      worst_dataset = dataset;
      worst_median = median;
      worst_iqr = q3 - q1;
    }
    reporter.AddKnobRow(env_knobs)
        .Str("section", "kernel_replay")
        .Str("dataset", dataset)
        .Num("matched", static_cast<double>(matched))
        .Num("instance_pairs", probed)
        .Num("rounds", kernel_rounds)
        .Num("exact_ms_median", Quantile(exact_ms, 0.50))
        .Num("kernel_ms_median", Quantile(kernel_ms, 0.50))
        .Num("speedup_median", median)
        .Num("speedup_q1", q1)
        .Num("speedup_q3", q3)
        .Num("sig_skip_pct", skip_pct)
        .Num("sig_saturated_pct", sat_pct);
  }
  std::printf("\n");
  std::snprintf(evidence, sizeof(evidence),
                "least favourable %s: median %.2fx, IQR %.2f; verdict counts "
                "identical",
                worst_dataset.c_str(), worst_median, worst_iqr);
  PrintVerdict(
      "the signature kernel is no slower than the exact sum on any profile "
      "(median speedup not below 1 by more than its IQR)",
      worst_margin <= 0.0, evidence);
  return 0;
}
