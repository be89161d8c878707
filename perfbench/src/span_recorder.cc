#include "span_recorder.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::Add(int64_t parent, const char* name, int64_t key,
                          double start, double end) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.key = key;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
  return spans_.back().id;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\",\"key\":%lld,"
                 "\"start_s\":%.9f,\"dur_us\":%.3f}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.key), s.start, s.seconds() * 1e6);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
