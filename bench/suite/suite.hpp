#pragma once
// Shared types of the benchmark suite (bench_suite.cpp drives the
// workloads defined in workloads.cpp; README.md documents both).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace ipg::bench {

/// How one workload process runs.
struct Context {
  std::uint64_t seed = 1;
  bool smoke = false;         ///< shrunken inputs, one timed rep
  std::size_t reps = 0;       ///< fixed timed reps; 0 = time budget or default
  double seconds = 0;         ///< time budget for the timed reps; 0 = none
  std::size_t threads = 1;    ///< T: kSharded domains of the traced speedup row
  Tracer* tracer = nullptr;   ///< non-null: also run one traced rep
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Deterministic for a fixed seed (a count or a ratio of counts), so two
  /// runs of the same code must agree exactly.
  bool exact = false;
  std::vector<double> samples;  ///< the per-rep values behind a timing
};

struct Report {
  std::vector<Metric> e2e;    ///< from the untraced reps
  std::vector<Metric> layer;  ///< from the traced rep (only when traced)
  std::uint64_t digest = 0;   ///< over every simulated result
  std::size_t attempted = 0;  ///< runs whose outputs were checked
  std::vector<std::string> failures;
  std::size_t reps = 0;       ///< timed reps of the primary configuration
};

struct LayerMetricDef {
  const char* name;
  const char* unit;
  bool exact;
};

/// Every end-to-end metric, in report order.
inline constexpr const char* kE2eMetrics[] = {
    "setup_s", "packets_per_s", "sharded_packets_per_s", "peak_rss_mb"};

/// Every per-layer metric, in report order. A workload reports 0 for a
/// layer it does not exercise.
extern const std::vector<LayerMetricDef> kLayerMetrics;

struct WorkloadDef {
  const char* name;
  Report (*run)(const Context&);
};

/// The four workloads, in the order `--workload all` runs them. Each runs on
/// one thread that is a util::ThreadPool worker (see workloads.cpp).
const std::vector<WorkloadDef>& workloads();

}  // namespace ipg::bench
