// In-memory spans, written out when the benchmark ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace replaybench {

/// Accumulated time and call count of one layer.
struct LayerTotals {
  double ns = 0.0;
  std::uint64_t calls = 0;

  void add(std::int64_t start_ns, std::int64_t end_ns) {
    ns += static_cast<double>(end_ns - start_ns);
    ++calls;
  }
  [[nodiscard]] double mean_ns() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

/// One timed call: `parent` indexes the span that caused it (-1 for a
/// root), `id` is the frame index or device MAC it concerns.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Single-writer span buffer. Names must be string literals (the log
/// keeps views of them).
class SpanLog {
 public:
  /// Appends a span and returns its index (the `parent` of its children).
  std::int64_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::uint64_t id) {
    spans_.push_back({name, start_ns, end_ns, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Times a span added before its bounds were known.
  void set_bounds(std::int64_t index, std::int64_t start_ns,
                  std::int64_t end_ns) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.start_ns = start_ns;
    span.end_ns = end_ns;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Appends `other`'s spans, re-basing their parent links.
  void append(const SpanLog& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; times relative to the earliest span.
  /// Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace replaybench
