#pragma once
// How fast the host runs at a moment, for scaling timings to reference
// seconds.
//
// On a shared host the other tenants slow every process for seconds at a
// time, and one run of the benchmark can fall wholly inside a slow spell:
// ten runs of the same workload spread by 20-40% in host time. Each timed
// rep is therefore bracketed by a fixed kernel, and its wall time is scaled
// by how long the kernel took around it against the kernel's reference time.
// The kernel is a priority queue, the simulator's own hot structure, and it
// is part of the benchmark, not of the program: a change to the simulator
// changes the scaled timings by exactly its own effect.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace.hpp"

namespace ipg::bench {

/// One pass of the kernel took this long on the reference host (the one
/// baselines/ was taken on) in a quiet moment. A timing of W host seconds
/// around which the kernel took P seconds is W * kReferenceProbeS / P
/// reference seconds.
inline constexpr double kReferenceProbeS = 0.012;

/// Times the kernel: push a fixed sequence of pseudo-random 64-bit keys
/// onto a binary min-heap, then pop them all.
class SpeedProbe {
 public:
  /// Runs one untimed pass, which faults in the heap's storage.
  SpeedProbe() {
    heap_.reserve(kKeys);
    seconds();
  }

  /// Host seconds of one pass.
  double seconds() {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < kKeys; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap_.push_back(x);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    std::uint64_t sum = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      sum += heap_.back();
      heap_.pop_back();
    }
    sink_ = sum;
    return seconds_between(start, Clock::now());
  }

 private:
  static constexpr std::size_t kKeys = 100'000;
  std::vector<std::uint64_t> heap_;
  volatile std::uint64_t sink_ = 0;  // keeps the pops from being optimized out
};

/// @p host_s host seconds, around which the probe took @p probe_s, in
/// reference seconds.
inline double reference_seconds(double host_s, double probe_s) {
  return host_s * kReferenceProbeS / probe_s;
}

}  // namespace ipg::bench
