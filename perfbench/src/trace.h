// In-memory span recorder for the benchmark's traced run.
//
// A span is recorded around each call the benchmark makes into a layer's
// public function: name ("core.lower", "runtime.flowsim", ...), start, end,
// the span that caused it, and the request it belongs to. Spans are kept in
// memory and written once, as Chrome trace-event JSON, when the run ends. A
// disabled tracer records nothing and never reads the clock, so untraced
// runs pay nothing for it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Tracer {
 public:
  /// The span id of "no parent".
  static constexpr std::int64_t kRoot = 0;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records `name` over [start, end) on the calling thread.
  void Record(const char* name, std::int64_t request, std::int64_t parent,
              Clock::time_point start, Clock::time_point end);

  /// RAII span: starts at construction, is recorded at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t request,
          std::int64_t parent = kRoot);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id, for use as the parent of nested spans.
    std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    const char* name_;
    std::int64_t request_;
    std::int64_t parent_;
    std::int64_t id_ = kRoot;
    Clock::time_point start_;
  };

  /// Self time per span name: each span's duration minus the part of it
  /// its child spans cover, summed by name.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps relative to the tracer's creation). False on an IO error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::int64_t id = kRoot;
    std::int64_t parent = kRoot;
    std::int64_t request = 0;
    const char* name = "";
    std::uint64_t thread = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Reserves an id for a span whose children are recorded before it ends.
  std::int64_t NewId();
  void Append(Span span);

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::int64_t next_id_ = 1;  ///< guarded by mu_
  std::vector<Span> spans_;   ///< guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
