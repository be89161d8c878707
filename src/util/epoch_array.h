#ifndef TERIDS_UTIL_EPOCH_ARRAY_H_
#define TERIDS_UTIL_EPOCH_ARRAY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace terids {

/// A dense array indexed by small integer ids whose slots all read as unset
/// again after Clear(), in O(1): each slot carries the epoch it was last
/// written in. This replaces a per-call hash map keyed by dense ids (value
/// ids, sample ids) on hot paths that are cleared far more often than they
/// are filled.
template <typename T>
class EpochArray {
 public:
  /// Forgets every slot and makes room for ids [0, size).
  void Clear(size_t size) {
    if (stamp_.size() < size) {
      value_.resize(size);
      stamp_.resize(size, 0);
    }
    if (++epoch_ == 0) {
      // Wrapped: no stale stamp may alias the new epoch.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Whether slot `i` was written since the last Clear().
  bool IsSet(size_t i) const { return stamp_[i] == epoch_; }

  /// Slot `i` for writing; a slot not written since the last Clear() starts
  /// from T{}.
  T& Slot(size_t i) {
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      value_[i] = T{};
    }
    return value_[i];
  }

  /// Slot `i`'s value, T{} if it was not written since the last Clear().
  T Get(size_t i) const { return IsSet(i) ? value_[i] : T{}; }

 private:
  std::vector<T> value_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

}  // namespace terids

#endif  // TERIDS_UTIL_EPOCH_ARRAY_H_
