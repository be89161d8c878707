#include "imputation/candidate_counts.h"

#include <algorithm>

namespace terids {

void CandidateCounts::Reset(size_t domain_size) {
  domain_size_ = domain_size;
  base_ = 0;
  touched_.clear();
  own_.Clear(domain_size);
}

std::vector<ImputedTuple::Candidate> CandidateCounts::Finalize(
    int max_candidates) const {
  std::vector<ImputedTuple::Candidate> out;
  int64_t total = 0;
  auto keep = [&](ValueId v, int64_t count) {
    if (count > 0) {
      out.push_back({v, static_cast<double>(count)});
      total += count;
    }
  };
  if (base_ == 0) {
    for (ValueId v : touched_) {
      keep(v, own_.Get(v));
    }
  } else {
    for (ValueId v = 0; v < domain_size_; ++v) {
      keep(v, base_ + own_.Get(v));
    }
  }
  if (out.empty()) {
    return out;
  }
  for (ImputedTuple::Candidate& c : out) {
    c.prob /= static_cast<double>(total);
  }
  // Deterministic order: probability descending, ValueId ascending. The
  // vid tie-break makes the order total, so the cap cut is identical
  // regardless of accumulation order and a partial sort yields exactly the
  // prefix a full sort would.
  auto by_prob = [](const ImputedTuple::Candidate& a,
                    const ImputedTuple::Candidate& b) {
    return a.prob != b.prob ? a.prob > b.prob : a.vid < b.vid;
  };
  const size_t cap = static_cast<size_t>(std::max(0, max_candidates));
  if (out.size() <= cap) {
    std::sort(out.begin(), out.end(), by_prob);
    return out;
  }
  // Keep the top candidates and renormalize over the retained set: the
  // truncated distribution becomes the imputation model. Without this,
  // capping strands probability mass and a correctly-imputed pair whose
  // candidates split the vote can never clear the alpha threshold.
  std::partial_sort(out.begin(), out.begin() + cap, out.end(), by_prob);
  out.resize(cap);
  double kept = 0.0;
  for (const ImputedTuple::Candidate& c : out) {
    kept += c.prob;
  }
  if (kept > 0.0) {
    for (ImputedTuple::Candidate& c : out) {
      c.prob /= kept;
    }
  }
  return out;
}

}  // namespace terids
