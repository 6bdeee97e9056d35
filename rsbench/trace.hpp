// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a RoleShare module, opened and closed by the
// benchmark's own code around the call: name, start, end, parent span and
// run id. Spans stay in memory (capacity reserved up front, names are
// string literals, so recording allocates nothing in the measured region)
// and are written out when the pass ends. Every call site takes a
// `Tracer*`; a null tracer makes Scope a no-op, which is how the untraced
// run executes the very same code without recording anything.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rsbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 = none
  };

  explicit Tracer(std::uint32_t run_id) : run_id_(run_id) {
    spans_.reserve(1 << 17);  // the longest pass records ~85k spans
  }

  std::int32_t open(const char* name) {
    Span span;
    span.name = name;
    span.parent = current_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void close(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    current_ = span.parent;
  }

  /// Durations (ms) of every span called `name`, in recording order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Appends one JSON line per span to `path`.
  void append_to(const std::string& path) const;

  /// Per span name: count, total and self time (duration minus the part
  /// its direct children cover), in first-seen order.
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<SelfTime> self_times() const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::uint32_t run_id_;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; does nothing when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->open(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
};

/// Durations (ms) of the spans called `name` in a span file another
/// process wrote with Tracer::append_to (the orchestrator workers).
std::vector<double> span_file_durations_ms(const std::string& path,
                                           std::string_view name);

}  // namespace rsbench
