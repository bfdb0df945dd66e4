#pragma once
// In-memory span recorder for the benchmark suite's traced runs.
//
// Spans are recorded by the benchmark around its calls into each layer
// (nothing inside src/ is instrumented): name, start, end, parent span and
// the recording thread. They stay in memory until the workload finishes and
// are then written as Chrome trace_event "X" events, which Perfetto and
// chrome://tracing load. A layer's self time, written with each span, is
// its span's duration minus the part of that interval its children cover.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ipg::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  /// Span ids are indices; kNoSpan marks a root.
  static constexpr int kNoSpan = -1;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under @p parent on the calling thread; returns its id.
  int begin(std::string name, int parent);
  /// Closes span @p id now.
  void end(int id);
  /// Attaches a numeric argument shown with the span in the trace viewer.
  void annotate(int id, std::string key, double value);

  /// Writes one Chrome trace event object per line (no enclosing array) so
  /// per-process outputs can be concatenated; @p pid groups a workload.
  /// Each span's args carry its id, its parent's id and its self time.
  void write_events(std::ostream& os, int pid, const std::string& process) const;

 private:
  struct Span {
    std::string name;
    int parent = kNoSpan;
    std::uint32_t tid = 0;
    Clock::time_point start{};
    Clock::time_point end{};
    std::vector<std::pair<std::string, double>> args;
  };
  std::uint32_t tid_of(std::thread::id thread);  // requires mu_

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                  // guarded by mu_
  std::vector<std::thread::id> threads_;     // guarded by mu_
};

/// RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), parent)
                              : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace ipg::bench
