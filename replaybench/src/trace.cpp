#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace replaybench {

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%.*s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"id\": %" PRIu64 "}\n",
                 i, static_cast<int>(s.name.size()), s.name.data(),
                 s.start_ns - origin, s.end_ns - origin, s.parent, s.id);
  }
  return std::fclose(f) == 0;
}

}  // namespace replaybench
