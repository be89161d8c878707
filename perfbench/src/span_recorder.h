#ifndef TERIDS_PERFBENCH_SPAN_RECORDER_H_
#define TERIDS_PERFBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One traced interval. Spans the benchmark times itself carry a start and
/// an end (seconds since the run's clock origin). Phase spans read from an
/// ArrivalOutcome's cost ledger carry only a duration: the engine reports
/// how long each phase took, not when it ran, so their `start` is their
/// parent's and `end - start` is the duration.
struct Span {
  int64_t id = 0;
  /// Id of the span that caused this one; -1 for a root.
  int64_t parent = -1;
  /// `<module>.<operation>`, e.g. "core.arrival" or "imputation.impute";
  /// always a string literal, so recording a span allocates nothing.
  const char* name = "";
  /// Stream timestamp for arrival, batch and phase spans; absorb ordinal
  /// for absorb spans; set-up repetition for set-up spans; round index for
  /// round spans (the roots: every other span descends from one).
  int64_t key = -1;
  double start = 0.0;
  double end = 0.0;

  double seconds() const { return end - start; }
};

/// In-memory span log for the traced run: appends only, and writes
/// everything out once the run has ended, so recording costs one vector
/// push per span. A disabled recorder records nothing, which is how the
/// untraced run that measures the end-to-end metrics is made.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (-1 when disabled).
  int64_t Add(int64_t parent, const char* name, int64_t key, double start,
              double end);

  /// Closes a span opened with an unknown end (a batch span is opened at
  /// its first outcome and closed at its last). No-op for id -1.
  void SetEnd(int64_t id, double end) {
    if (id >= 0) {
      spans_[static_cast<size_t>(id)].end = end;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span per line. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // TERIDS_PERFBENCH_SPAN_RECORDER_H_
