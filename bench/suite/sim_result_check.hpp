#pragma once
// Correctness checks the benchmarks apply to every SimResult they time.
//
// Simulated statistics are checks, not metrics: every engine, domain count
// and thread count must return bit-identical results, so the helpers here
// compare every SimResult field by bit pattern (a divergence in p99 or in
// the conservation counts must fail just like one in the makespan), check
// the run invariants, and fold results into a 64-bit digest that can be
// committed and compared across commits.

#include <bit>
#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ipg::bench {

// A new SimResult field must be added to for_each_field below, or the
// identity check and the digest would silently ignore it.
static_assert(sizeof(sim::SimResult) == 17 * 8,
              "SimResult changed: update for_each_field");

/// Calls fn(name, bits) for every SimResult field, doubles as bit patterns.
template <typename Fn>
void for_each_field(const sim::SimResult& r, Fn&& fn) {
  const auto d = [&](const char* name, double v) {
    fn(name, std::bit_cast<std::uint64_t>(v));
  };
  const auto n = [&](const char* name, std::size_t v) {
    fn(name, static_cast<std::uint64_t>(v));
  };
  n("packets_delivered", r.packets_delivered);
  d("makespan_cycles", r.makespan_cycles);
  d("avg_latency_cycles", r.avg_latency_cycles);
  d("p50_latency_cycles", r.p50_latency_cycles);
  d("p99_latency_cycles", r.p99_latency_cycles);
  d("max_latency_cycles", r.max_latency_cycles);
  d("avg_hops", r.avg_hops);
  d("avg_offchip_hops", r.avg_offchip_hops);
  d("throughput_flits_per_node_cycle", r.throughput_flits_per_node_cycle);
  d("max_offchip_utilization", r.max_offchip_utilization);
  d("avg_offchip_utilization", r.avg_offchip_utilization);
  n("packets_injected", r.packets_injected);
  n("packets_dropped", r.packets_dropped);
  n("packets_retransmitted", r.packets_retransmitted);
  n("packets_in_flight", r.packets_in_flight);
  n("reroute_hops", r.reroute_hops);
  d("delivered_fraction", r.delivered_fraction);
}

/// Empty when @p a and @p b agree in every field bit for bit, else the name
/// of the first field that differs.
inline std::string first_difference(const sim::SimResult& a,
                                    const sim::SimResult& b) {
  std::uint64_t bits[17] = {};
  std::size_t i = 0;
  for_each_field(a, [&](const char*, std::uint64_t v) { bits[i++] = v; });
  std::string diff;
  i = 0;
  for_each_field(b, [&](const char* name, std::uint64_t v) {
    if (diff.empty() && bits[i] != v) diff = name;
    ++i;
  });
  return diff;
}

inline bool bit_identical(const sim::SimResult& a, const sim::SimResult& b) {
  return first_difference(a, b).empty();
}

/// Empty when the run invariants hold: conservation of injected packets,
/// off-chip utilization and delivered fraction in [0, 1]; else a reason.
inline std::string invariant_violation(const sim::SimResult& r) {
  if (r.packets_injected !=
      r.packets_delivered + r.packets_dropped + r.packets_in_flight) {
    return "conservation: injected != delivered + dropped + in_flight";
  }
  const auto unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!unit(r.max_offchip_utilization) || !unit(r.avg_offchip_utilization)) {
    return "off-chip utilization outside [0, 1]";
  }
  if (!unit(r.delivered_fraction)) return "delivered fraction outside [0, 1]";
  return {};
}

/// Order-sensitive 64-bit digest over results, seeded with 0.
class Digest {
 public:
  void add(std::uint64_t word) {
    state_ = util::derive_seed(state_ ^ word, ++count_);
  }
  void add(const sim::SimResult& r) {
    for_each_field(r, [this](const char*, std::uint64_t v) { add(v); });
  }
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace ipg::bench
