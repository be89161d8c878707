#include "repo/value_postings.h"

namespace terids {

ValuePostings::ValuePostings(const Repository* repo) : repo_(repo) {
  TERIDS_CHECK(repo != nullptr);
  attrs_.resize(repo->num_attributes());
}

void ValuePostings::Sync(int attr) {
  AttrPostings& ap = attrs_[attr];
  const size_t size = repo_->domain_size(attr);
  for (size_t v = ap.size; v < size; ++v) {
    const ValueId vid = static_cast<ValueId>(v);
    const TokenSet& tokens = repo_->value_tokens(attr, vid);
    if (tokens.empty()) {
      ap.empty_values.push_back(vid);
    }
    for (Token t : tokens) {
      ap.lists[t].push_back(vid);
    }
    ap.value_sizes.push_back(static_cast<uint32_t>(tokens.size()));
  }
  ap.size = size;
}

void ValuePostings::Count(int attr, const TokenSet& tokens,
                          TokenOverlaps* out) {
  Sync(attr);
  const AttrPostings& ap = attrs_[attr];
  out->inter_.Clear(ap.size);
  out->value_sizes_ = &ap.value_sizes;
  out->query_size_ = static_cast<uint32_t>(tokens.size());
  if (tokens.empty()) {
    out->hits_ = ap.empty_values;
    return;
  }
  out->hits_.clear();
  for (Token t : tokens) {
    auto it = ap.lists.find(t);
    if (it == ap.lists.end()) {
      continue;
    }
    for (ValueId v : it->second) {
      if (!out->inter_.IsSet(v)) {
        out->hits_.push_back(v);
      }
      ++out->inter_.Slot(v);
    }
  }
}

}  // namespace terids
