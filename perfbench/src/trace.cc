#include "trace.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::int64_t Tracer::NewId() {
  if (!enabled_) return kRoot;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Append(Span span) {
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == kRoot) span.id = next_id_++;
  spans_.push_back(span);
}

void Tracer::Record(const char* name, std::int64_t request,
                    std::int64_t parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = start;
  span.end = end;
  Append(span);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t request,
                     std::int64_t parent)
    : tracer_(tracer), name_(name), request_(request), parent_(parent) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.NewId();
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled()) return;
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.name = name_;
  span.start = start_;
  span.end = Clock::now();
  tracer_.Append(span);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::int64_t, double> covered;
  for (const Span& span : spans_) {
    if (span.parent != kRoot) {
      covered[span.parent] += SecondsBetween(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const auto it = covered.find(span.id);
    self[span.name] += SecondsBetween(span.start, span.end) -
                       (it == covered.end() ? 0.0 : it->second);
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, int> tids;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto [tid, unused] =
        tids.try_emplace(span.thread, static_cast<int>(tids.size()) + 1);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
        "\"request\":%lld}}",
        i == 0 ? "" : ",\n", span.name, tid->second,
        std::chrono::duration<double, std::micro>(span.start - origin_)
            .count(),
        std::chrono::duration<double, std::micro>(span.end - span.start)
            .count(),
        static_cast<long long>(span.id), static_cast<long long>(span.parent),
        static_cast<long long>(span.request));
    out << line;
  }
  out << "]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
