#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>

namespace ipg::bench {

namespace {

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Trace timestamps and durations: microseconds, to the nanosecond.
std::string micros(Clock::duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                std::chrono::duration<double, std::micro>(d).count());
  return buf;
}

}  // namespace

std::uint32_t Tracer::tid_of(std::thread::id thread) {
  const auto it = std::find(threads_.begin(), threads_.end(), thread);
  if (it != threads_.end()) {
    return static_cast<std::uint32_t>(it - threads_.begin());
  }
  threads_.push_back(thread);
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

int Tracer::begin(std::string name, int parent) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), parent,
                    tid_of(std::this_thread::get_id()), now, now, {}});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void Tracer::annotate(int id, std::string key, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key), value);
}

void Tracer::write_events(std::ostream& os, int pid,
                          const std::string& process) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << std::setprecision(9);
  os << R"({"name": "process_name", "ph": "M", "pid": )" << pid
     << R"(, "tid": 0, "args": {"name": )";
  write_string(os, process);
  os << "}}\n";
  // Self time: duration minus the part of it the children cover. Children
  // may run concurrently on other threads, so coverage is the union of their
  // intervals clipped to the parent.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoSpan) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  const auto self = [&](std::size_t id) {
    const Span& s = spans_[id];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
    for (const std::size_t c : children[id]) {
      kids.emplace_back(std::max(spans_[c].start, s.start),
                        std::min(spans_[c].end, s.end));
    }
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{};
    Clock::time_point reach = s.start;
    for (const auto& [from, to] : kids) {
      if (to > std::max(from, reach)) {
        covered += to - std::max(from, reach);
        reach = to;
      }
    }
    return (s.end - s.start) - covered;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << R"({"name": )";
    write_string(os, s.name);
    os << R"(, "cat": "bench", "ph": "X", "ts": )" << micros(s.start - origin_)
       << R"(, "dur": )" << micros(s.end - s.start) << R"(, "pid": )" << pid
       << R"(, "tid": )" << s.tid << R"(, "args": {"id": )" << i
       << R"(, "parent": )" << s.parent << R"(, "self_us": )" << micros(self(i));
    for (const auto& [key, value] : s.args) {
      os << ", ";
      write_string(os, key);
      os << ": " << value;
    }
    os << "}}\n";
  }
}

}  // namespace ipg::bench
