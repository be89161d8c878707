#ifndef TERIDS_CORE_TERIDS_ENGINE_H_
#define TERIDS_CORE_TERIDS_ENGINE_H_

#include <vector>

#include "core/pipeline.h"
#include "imputation/value_neighborhoods.h"
#include "index/cdd_index.h"
#include "index/dr_index.h"
#include "rules/rule.h"
#include "util/epoch_array.h"

namespace terids {

/// The full TER-iDS processing engine (Algorithm 2, Section 5.3).
///
/// Offline (construction): pivot tables are assumed attached to the
/// repository; the engine builds the CDD-index I_j over the mined CDD rules
/// and the DR-index I_R over the repository.
///
/// Online (per arrival): the index join. For each missing attribute of the
/// arriving tuple, the CDD-index selects compatible rules (constant
/// constraints verified against the probe coordinates); each selected rule
/// is turned into per-attribute coordinate bands that drive a pruned
/// DR-index retrieval of candidate samples; exact determinant verification
/// and candidate-value accumulation (Equation 4) complete the imputation.
/// The imputed tuple then probes the ER-grid, whose cell-level topic and
/// distance bounds feed the pair-level pruning cascade (Theorems 4.1-4.4).
class TerIdsEngine : public PipelineBase {
 public:
  /// The engine copies `rules` (it owns the vector its CDD-index points
  /// into). `dynamic_repository` enables the Section 5.5 extension hooks.
  TerIdsEngine(Repository* repo, EngineConfig config, int num_streams,
               std::vector<CddRule> rules);

  /// Dynamic repository maintenance (Section 5.5): adds a batch of new
  /// complete tuples to R, extends the DR-index incrementally, and widens
  /// CDD rules via the miner's absorb step. Once per batch it then rebuilds
  /// the CDD-index if any rule widened and refreshes the value
  /// neighbourhoods (new domain values inserted, lists of an attribute whose
  /// radius changed dropped).
  Status AbsorbRepositoryBatch(const std::vector<Record>& batch);

  const CddIndex& cdd_index() const { return cdd_index_; }
  const DrIndex& dr_index() const { return dr_index_; }
  const std::vector<CddRule>& rules() const { return rules_; }

 protected:
  std::vector<ImputedTuple::ImputedAttr> Impute(const Record& r,
                                                const ProbeCoords& pc,
                                                CostBreakdown* cost) override;

 private:
  std::vector<AttrBand> BandsForRule(const CddRule& rule,
                                     const ProbeCoords& pc) const;

  std::vector<CddRule> rules_;
  CddIndex cdd_index_;
  DrIndex dr_index_;
  ValueNeighborhoods neighborhoods_;
  CandidateCounts counts_;
  /// Per-arrival probe-sample distances, slot sample_idx * d + attr.
  EpochArray<double> dist_memo_;
};

}  // namespace terids

#endif  // TERIDS_CORE_TERIDS_ENGINE_H_
