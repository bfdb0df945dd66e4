// The four benchmark workloads.
//
// Each workload builds its inputs several times (the median is setup_s),
// runs one untimed warm-up rep that checks every configuration against the
// reference result, then timed reps with its configurations interleaved, so
// ratios between them compare like conditions. Every timed call, and every
// setup sample, is bracketed by the host-speed probe (host_speed.hpp) and
// converted to reference seconds; the end-to-end metrics are medians over
// the converted reps.
//
// A workload runs on one thread (bench_suite.cpp starts it on a one-worker
// pool), so the library's parallel paths, kSharded's domains among them,
// run inline: timings of threads that wait on each other measure the host's
// scheduler more than the program. Only the traced rep runs kSharded on
// parallel threads, for the informational speedup rows.
//
// A traced workload adds one rep that times each layer from outside, by
// wrapping calls into its public API: a counting wrapper around the Router
// and a MetricsObserver counting pass. End-to-end metrics never come from
// that rep.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "host_speed.hpp"
#include "mcmp/capacity.hpp"
#include "sim/observer.hpp"
#include "sim/simulator.hpp"
#include "sim_result_check.hpp"
#include "suite.hpp"
#include "topology/named.hpp"
#include "topology/nucleus.hpp"
#include "topology/super_ipg.hpp"
#include "util/rng.hpp"

namespace ipg::bench {

// Host time spent in a layer is reported as a rate (work per host-second
// inside the layer) or as a share of the enclosing wall time, never as
// seconds: every workload reports every metric, and for a layer it does not
// exercise, zero work per second and a zero share are true readings, while
// zero seconds per call would claim the calls cost nothing.
const std::vector<LayerMetricDef> kLayerMetrics = {
    {"topology.nodes_per_s", "1/s", false},
    {"mcmp.nodes_per_s", "1/s", false},
    {"traffic.setup_share", "ratio", false},
    {"routers.calls", "count", true},
    {"routers.calls_per_s", "1/s", false},
    {"routers.share", "ratio", false},
    {"route_arena.memo_hit_ratio", "ratio", true},
    {"engine.hops", "count", true},
    {"engine.deliveries", "count", true},
    {"engine.hops_per_s", "1/s", false},
    {"engine.observer_on_over_off", "ratio", false},
    {"sharded.k1_over_arena", "ratio", false},
    {"sharded.speedup_kT", "ratio", false},
    {"sharded.speedup_k4", "ratio", false},
    {"sharded.efficiency_kT", "ratio", false},
    {"faults.detours", "count", true},
    {"faults.reroute_hops", "count", true},
    {"faults.retries", "count", true},
    {"faults.drops", "count", true},
    {"faults.delivered_fraction", "ratio", true},
    {"faults.degraded_over_healthy", "ratio", false},
    {"bench.tracing_overhead", "ratio", false},
    {"bench.host_speed", "ratio", false},
    {"bench.reps", "count", false},
    {"bench.threads", "count", true},
};

namespace {

using namespace ipg::sim;
using topology::NodeId;

constexpr const char* kThroughputUnit = "packets/ref-s";
constexpr std::size_t kMinTimedReps = 3;
// Large inputs are sampled at least kSetupMinReps times, and more (up to
// kSetupMaxReps) while the samples so far took under kSetupBudgetS.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 51;
constexpr double kSetupBudgetS = 1.0;

double elapsed_s(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metric sink, check counter and rep policy of one workload process.
class Run {
 public:
  Run(const Context& ctx, const char* workload, std::size_t default_reps)
      : ctx_(ctx),
        default_reps_(default_reps),
        root_(ctx.tracer != nullptr
                  ? ctx.tracer->begin(workload, Tracer::kNoSpan)
                  : Tracer::kNoSpan) {}

  const Context& ctx() const noexcept { return ctx_; }
  Tracer* tracer() const noexcept { return ctx_.tracer; }
  bool traced() const noexcept { return ctx_.tracer != nullptr; }
  int root() const noexcept { return root_; }
  std::size_t threads() const noexcept { return ctx_.threads; }

  void check(bool ok, const std::string& what) {
    ++report_.attempted;
    if (!ok) report_.failures.push_back(what);
  }
  /// One checked run: @p got must satisfy the run invariants and, unless
  /// @p ref is null, equal *ref in every field.
  void check_result(const SimResult* ref, const SimResult& got,
                    const std::string& what) {
    std::string why = invariant_violation(got);
    if (why.empty() && ref != nullptr) {
      const std::string field = first_difference(*ref, got);
      if (!field.empty()) why = "differs from the reference in " + field;
    }
    check(why.empty(), why.empty() ? what : what + ": " + why);
  }
  void check_result(const SimResult& ref, const SimResult& got,
                    const std::string& what) {
    check_result(&ref, got, what);
  }

  Digest digest;

  void e2e(const char* name, double value, const char* unit,
           std::vector<double> samples) {
    report_.e2e.push_back({name, value, unit, false, std::move(samples)});
  }
  /// Per-layer metrics are recorded only by traced runs.
  void layer(const std::string& name, double value) {
    if (!traced()) return;
    const auto def = std::find_if(
        kLayerMetrics.begin(), kLayerMetrics.end(),
        [&](const LayerMetricDef& d) { return name == d.name; });
    if (def == kLayerMetrics.end()) {
      throw std::logic_error("unknown layer metric " + name);
    }
    layer_[name] = value;
  }
  void set_reps(std::size_t reps) { report_.reps = reps; }

  /// Host seconds of one pass of the host-speed probe; bench.host_speed is
  /// the reference time over the median of every pass.
  double probe() {
    probes_.push_back(probe_.seconds());
    return probes_.back();
  }

  /// Records one timed build of the workload's inputs, whose network has
  /// @p nodes nodes, with its steps' host seconds; setup_s and the per-step
  /// metrics use medians over all of them.
  void add_setup(double host_s, double reference_s,
                 const std::map<std::string, double>& steps, std::size_t nodes) {
    setup_host_.push_back(host_s);
    setup_.push_back(reference_s);
    for (const auto& [name, secs] : steps) setup_steps_[name].push_back(secs);
    setup_nodes_ = nodes;
  }
  /// @p sampler times one more build; it runs after every timed rep.
  void set_setup_sampler(std::function<void()> sampler) {
    setup_sampler_ = std::move(sampler);
  }

  /// True while another timed rep should run: the --reps count (one rep in
  /// smoke mode), else the --seconds budget with a floor of kMinTimedReps,
  /// else the workload's default count. Takes a setup sample first when
  /// the workload asked for them between reps.
  bool more_reps(std::size_t done, Clock::time_point start) {
    if (done > 0 && setup_sampler_) setup_sampler_();
    bool more = false;
    if (ctx_.smoke) {
      more = done < 1;
    } else if (ctx_.reps > 0) {
      more = done < ctx_.reps;
    } else if (ctx_.seconds > 0) {
      more = done < kMinTimedReps || elapsed_s(start) < ctx_.seconds;
    } else {
      more = done < default_reps_;
    }
    if (!more) peak_rss_mb_ = peak_rss_mb();
    return more;
  }

  Report finish() {
    report_.digest = digest.value();
    if (setup_.empty() && setup_sampler_) setup_sampler_();
    setup_sampler_ = nullptr;
    report_.e2e.insert(report_.e2e.begin(),
                       {"setup_s", median(setup_), "s", false, setup_});
    report_.e2e.push_back({"peak_rss_mb", peak_rss_mb_, "MiB", false, {}});
    const auto step_s = [this](const std::string& step) {
      const auto it = setup_steps_.find(step);
      return it == setup_steps_.end() ? 0.0 : median(it->second);
    };
    const auto nodes_per_s = [&](const std::string& step) {
      const double secs = step_s(step);
      return secs > 0 ? static_cast<double>(setup_nodes_) / secs : 0.0;
    };
    layer("topology.nodes_per_s", nodes_per_s("topology.build"));
    layer("mcmp.nodes_per_s", nodes_per_s("mcmp.network"));
    layer("traffic.setup_share",
          step_s("traffic.schedule") / median(setup_host_));
    if (traced()) {
      layer("bench.host_speed", kReferenceProbeS / median(probes_));
      layer("bench.reps", static_cast<double>(report_.reps));
      layer("bench.threads", static_cast<double>(ctx_.threads));
      for (const LayerMetricDef& d : kLayerMetrics) {
        const auto it = layer_.find(d.name);
        report_.layer.push_back(
            {d.name, it == layer_.end() ? 0.0 : it->second, d.unit, d.exact, {}});
      }
      ctx_.tracer->end(root_);
    }
    return std::move(report_);
  }

 private:
  const Context& ctx_;
  std::size_t default_reps_;
  int root_;
  Report report_;
  std::map<std::string, double> layer_;
  std::vector<double> setup_;       // reference seconds
  std::vector<double> setup_host_;  // host seconds
  std::map<std::string, std::vector<double>> setup_steps_;
  std::size_t setup_nodes_ = 0;
  std::function<void()> setup_sampler_;
  SpeedProbe probe_;
  std::vector<double> probes_;
  // The process's high-water mark when the timed reps end, before the
  // traced rep, whose parallel kSharded rows fill the allocator arenas of
  // other threads.
  double peak_rss_mb_ = 0;
};

// --- setup ------------------------------------------------------------------

/// Times the named setup steps of one build; each step is a span.
class Steps {
 public:
  Steps(Tracer* tracer, int parent) : tracer_(tracer), parent_(parent) {}

  /// Runs @p f as setup step @p layer ("topology.build", "mcmp.network" or
  /// "traffic.schedule") and returns its result.
  template <typename F>
  auto operator()(const std::string& layer, F&& f) {
    const ScopedSpan span(tracer_, layer, parent_);
    const Clock::time_point start = Clock::now();
    auto out = f();
    seconds_[layer] += elapsed_s(start);
    return out;
  }
  const std::map<std::string, double>& seconds() const noexcept {
    return seconds_;
  }

  std::size_t nodes = 0;  ///< of the network built, set by its builder

 private:
  Tracer* tracer_;
  int parent_;
  std::map<std::string, double> seconds_;
};

/// When a workload re-times its setup.
enum class SetupReps {
  /// Large inputs: sampled up front while the samples take under
  /// kSetupBudgetS, each build released before the next, so one is held.
  kUpFront,
  /// Small inputs: sampled after every timed rep, so setup_s covers the
  /// whole run instead of one moment.
  kBetweenReps,
};

/// Builds the workload inputs (tracing this first build: its steps are
/// spans), records setup samples, and returns the build the workload runs
/// on. A sample times builds back to back for at least kSetupSampleS and
/// records their mean in reference seconds: single 512-node builds took 100
/// to 200 us from one sample to the next, while 2 ms batches averaged 100 to
/// 110 us in most runs.
template <typename Build>
auto timed_setup(Run& run, SetupReps when, Build build) {
  using Inputs = std::invoke_result_t<Build&, Steps&>;
  constexpr double kSetupSampleS = 0.002;
  std::optional<Inputs> inputs;
  {
    const ScopedSpan span(run.tracer(), "setup", run.root());
    Steps step(run.tracer(), span.id());
    inputs.emplace(build(step));
  }
  // With @p keep, the last build of the sample replaces *keep.
  auto sample = [&run, build](std::optional<Inputs>* keep) mutable {
    Steps step(nullptr, Tracer::kNoSpan);
    std::size_t builds = 0;
    const double probe_before = run.probe();
    const Clock::time_point t0 = Clock::now();
    do {
      if (keep != nullptr) {
        keep->reset();
        keep->emplace(build(step));
      } else {
        build(step);
      }
      ++builds;
    } while (elapsed_s(t0) < kSetupSampleS);
    const double wall = elapsed_s(t0);
    const double probe_s = 0.5 * (probe_before + run.probe());
    const auto n = static_cast<double>(builds);
    std::map<std::string, double> steps = step.seconds();
    for (auto& [name, secs] : steps) secs /= n;
    run.add_setup(wall / n, reference_seconds(wall, probe_s) / n, steps,
                  step.nodes);
  };
  if (when == SetupReps::kBetweenReps) {
    run.set_setup_sampler([sample]() mutable { sample(nullptr); });
    return std::move(*inputs);
  }
  const std::size_t min_samples = run.ctx().smoke ? 1 : kSetupMinReps;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < min_samples || (!run.ctx().smoke && i < kSetupMaxReps &&
                           elapsed_s(start) < kSetupBudgetS);
       ++i) {
    sample(&inputs);
  }
  return std::move(*inputs);
}

/// A simulated MCMP: network, canonical router, and the super-IPG the
/// router reads (null for hypercubes).
struct Fabric {
  std::shared_ptr<const topology::SuperIpg> ipg;
  SimNetwork net;
  Router router;
};

/// Q_dim with 16-node subcube chips under unit chip capacity.
Fabric hypercube_fabric(unsigned dim, Steps& step) {
  auto [graph, chips] = step("topology.build", [&] {
    return std::pair(topology::hypercube_graph(dim),
                     topology::hypercube_subcube_clustering(dim, 16));
  });
  SimNetwork net = step("mcmp.network", [&] {
    return mcmp::make_unit_chip_network(std::move(graph), std::move(chips), 1.0);
  });
  step.nodes = net.num_nodes();
  return {nullptr, std::move(net), hypercube_router(dim)};
}

/// HSN(levels, Q_nucleus_dim), one chip per nucleus copy.
Fabric hsn_fabric(std::size_t levels, unsigned nucleus_dim, Steps& step) {
  auto [ipg, graph, chips] = step("topology.build", [&] {
    auto s = std::make_shared<const topology::SuperIpg>(topology::make_hsn(
        levels, std::make_shared<topology::HypercubeNucleus>(nucleus_dim)));
    return std::tuple(s, s->to_graph(), s->nucleus_clustering());
  });
  SimNetwork net = step("mcmp.network", [&] {
    return mcmp::make_unit_chip_network(std::move(graph), std::move(chips), 1.0);
  });
  step.nodes = net.num_nodes();
  Router router = super_ipg_router(*ipg);
  return {std::move(ipg), std::move(net), std::move(router)};
}

/// Permutation exchange: in round r every @p stride-th node v sends one
/// packet to perm_r(v) at t = r, perm_r a random permutation drawn from
/// @p seed (fixed points send nothing). The exchange shape at about
/// rounds * n / stride packets instead of n^2, so it scales to a million
/// nodes. Unlike a single cyclic offset, whose hop count depends on the
/// offset's digits, random destinations give every seed nearly the same
/// work.
std::vector<Injection> permutation_exchange(std::size_t n, std::size_t rounds,
                                            std::uint64_t seed,
                                            std::size_t stride = 1) {
  std::vector<Injection> inj;
  inj.reserve(n / stride * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    util::Xoshiro256 rng(util::derive_seed(seed, r));
    const std::vector<NodeId> perm = random_permutation(n, rng);
    for (std::size_t v = 0; v < n; v += stride) {
      if (perm[v] != v) {
        inj.push_back({static_cast<NodeId>(v), perm[v], static_cast<double>(r)});
      }
    }
  }
  return inj;
}

// --- timing -----------------------------------------------------------------

/// Wall times of each configuration's calls, one per timed rep.
struct Walls {
  std::vector<std::vector<double>> host;
  std::vector<std::vector<double>> reference;  ///< see host_speed.hpp
};

/// Runs the configurations interleaved, one call of each per timed rep,
/// with a probe pass before the rep and after every call.
Walls time_interleaved(Run& run,
                       const std::vector<std::function<void()>>& configs) {
  Walls walls{std::vector<std::vector<double>>(configs.size()),
              std::vector<std::vector<double>>(configs.size())};
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; run.more_reps(rep, start); ++rep) {
    double probe_before = run.probe();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      configs[i]();
      const double wall = elapsed_s(t0);
      const double probe_after = run.probe();
      walls.host[i].push_back(wall);
      walls.reference[i].push_back(
          reference_seconds(wall, 0.5 * (probe_before + probe_after)));
      probe_before = probe_after;
    }
  }
  run.set_reps(walls.host.front().size());
  return walls;
}

/// Reports packets ÷ reference wall, the median over the timed reps, for
/// the kArena (walls[0]) and the kSharded (walls[1]) configuration, with
/// every rep as a sample.
void report_throughput(Run& run, double packets,
                       const std::vector<std::vector<double>>& walls) {
  const char* names[] = {"packets_per_s", "sharded_packets_per_s"};
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<double> rates;
    for (const double w : walls[i]) rates.push_back(packets / w);
    run.e2e(names[i], median(rates), kThroughputUnit, rates);
  }
}

// --- outside-in layer probes -------------------------------------------------

/// Router calls and the host time spent inside them; shared by every copy
/// of a counted router, so concurrent callers (parallel kSharded domains
/// re-routing around faults) are fine.
struct RouterCounter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

Router counted_router(Router inner, RouterCounter& counter) {
  return [inner = std::move(inner), &counter](NodeId s, NodeId d) {
    const Clock::time_point t0 = Clock::now();
    auto word = inner(s, d);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - t0);
    counter.ns.fetch_add(static_cast<std::uint64_t>(ns.count()),
                         std::memory_order_relaxed);
    counter.calls.fetch_add(1, std::memory_order_relaxed);
    return word;
  };
}

// --- single-run workloads -----------------------------------------------------

/// Runs one simulation of the workload through @p route under @p cfg.
using Exec = std::function<SimResult(const Router& route, const SimConfig& cfg)>;

struct CountedRun {
  SimResult result;
  double wall = 0;
  RouterCounter router;
};

/// One traced run, its router counted, as span @p name under @p parent.
void counted_run(Run& run, const std::string& name, int parent,
                 const Exec& exec, const Router& route, const SimConfig& cfg,
                 CountedRun& out) {
  const Router counted = counted_router(route, out.router);
  const ScopedSpan span(run.tracer(), name, parent);
  const Clock::time_point t0 = Clock::now();
  out.result = exec(counted, cfg);
  out.wall = elapsed_s(t0);
  // Router calls are far too many for spans: the run span carries them.
  run.tracer()->annotate(span.id(), "router_calls",
                         static_cast<double>(out.router.calls.load()));
  run.tracer()->annotate(span.id(), "router_s", out.router.seconds());
}

/// Domains of the timed kSharded configuration. They run one after another
/// on the workload's thread, so the work timed does not depend on the
/// machine's core count.
constexpr std::size_t kTimedDomains = 4;

/// Runs @p f on a thread of its own and waits for it. The workload thread
/// is a pool worker, on which kSharded runs its domains inline; from any
/// other thread they run in parallel on the process pool.
template <typename F>
void off_pool(F&& f) {
  std::exception_ptr error;
  std::thread([&] {
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error != nullptr) std::rethrow_exception(error);
}

SimConfig sharded_config(SimConfig cfg, std::size_t domains) {
  cfg.engine = Engine::kSharded;
  cfg.shard_domains = static_cast<std::uint32_t>(domains);
  return cfg;
}

struct SingleRunSpec {
  Exec exec;
  SimConfig cfg;
  std::size_t expect_delivered = 0;  ///< 0 = no exact expectation
  bool reference_oracle = false;     ///< check against Engine::kReference
  bool healthy_companion = false;    ///< traced rep adds a no-fault run
};

/// The traced rep of a single-run workload: routers, memo, engine counting
/// pass, sharding ratios (kSharded on parallel threads) and fault counters.
void trace_single_run(Run& run, const SingleRunSpec& spec,
                      const Router& route, const SimResult& ref,
                      double untraced_arena_s) {
  const ScopedSpan rep(run.tracer(), "rep traced", run.root());
  CountedRun arena;
  counted_run(run, "run kArena", rep.id(), spec.exec, route, spec.cfg, arena);
  run.check_result(ref, arena.result, "traced kArena");
  const double calls = static_cast<double>(arena.router.calls.load());
  const double router_s = arena.router.seconds();
  const double routed = static_cast<double>(
      arena.result.packets_injected + arena.result.packets_retransmitted);
  run.layer("routers.calls", calls);
  run.layer("routers.calls_per_s", calls / router_s);
  run.layer("routers.share", router_s / arena.wall);
  run.layer("route_arena.memo_hit_ratio", 1.0 - calls / routed);
  run.layer("bench.tracing_overhead", arena.wall / untraced_arena_s);

  MetricsObserver observer;
  SimConfig observed = spec.cfg;
  observed.observer = &observer;
  CountedRun counting;
  counted_run(run, "run kArena + MetricsObserver", rep.id(), spec.exec, route,
              observed, counting);
  run.check_result(ref, counting.result, "kArena with MetricsObserver");
  const MetricsObserver::Counters& c = observer.counters();
  run.layer("engine.hops", static_cast<double>(c.hops));
  run.layer("engine.deliveries", static_cast<double>(c.delivered));
  run.layer("engine.hops_per_s",
            static_cast<double>(c.hops) / (arena.wall - router_s));
  run.layer("engine.observer_on_over_off", counting.wall / arena.wall);
  run.layer("faults.detours", static_cast<double>(c.detours));
  run.layer("faults.retries", static_cast<double>(c.retries));
  run.layer("faults.drops", static_cast<double>(c.dropped));
  run.layer("faults.reroute_hops", static_cast<double>(ref.reroute_hops));
  run.layer("faults.delivered_fraction", ref.delivered_fraction);

  const auto sharded_wall = [&](std::size_t k) {
    CountedRun sharded;
    off_pool([&] {
      counted_run(run, "run kSharded K=" + std::to_string(k), rep.id(),
                  spec.exec, route, sharded_config(spec.cfg, k), sharded);
    });
    run.check_result(ref, sharded.result,
                     "traced kSharded K=" + std::to_string(k));
    return sharded.wall;
  };
  const double speedup = arena.wall / sharded_wall(run.threads());
  run.layer("sharded.speedup_kT", speedup);
  run.layer("sharded.efficiency_kT",
            speedup / static_cast<double>(run.threads()));
  run.layer("sharded.k1_over_arena", sharded_wall(1) / arena.wall);
  run.layer("sharded.speedup_k4", arena.wall / sharded_wall(4));
  if (spec.healthy_companion) {
    SimConfig healthy = spec.cfg;
    healthy.fault_plan = nullptr;
    healthy.max_retries = 0;
    CountedRun h;
    counted_run(run, "run kArena healthy", rep.id(), spec.exec, route, healthy,
                h);
    run.check_result(nullptr, h.result, "healthy companion");
    run.layer("faults.degraded_over_healthy", arena.wall / h.wall);
  }
}

/// Warm-up, timed reps and traced rep of a workload whose unit of work is
/// one simulation: kArena is the primary configuration and kSharded with
/// kTimedDomains domains the second, interleaved per rep.
void single_run_body(Run& run, const SingleRunSpec& spec, const Router& route) {
  // The reference is the kReference oracle, or else the warm-up kArena run.
  SimConfig first = spec.cfg;
  if (spec.reference_oracle) first.engine = Engine::kReference;
  const SimResult ref = spec.exec(route, first);
  run.check_result(nullptr, ref, "reference run");
  if (spec.expect_delivered > 0) {
    run.check(ref.packets_delivered == spec.expect_delivered,
              "reference delivers every packet");
  }
  run.digest.add(ref);

  const SimConfig sharded = sharded_config(spec.cfg, kTimedDomains);
  if (spec.reference_oracle) {
    run.check_result(ref, spec.exec(route, spec.cfg), "warm-up kArena");
  }
  run.check_result(ref, spec.exec(route, sharded), "warm-up kSharded");

  const auto walls = time_interleaved(
      run, {[&] { run.check_result(ref, spec.exec(route, spec.cfg), "kArena"); },
            [&] {
              run.check_result(ref, spec.exec(route, sharded), "kSharded");
            }});
  report_throughput(run, static_cast<double>(ref.packets_delivered),
                    walls.reference);
  if (run.traced()) {
    trace_single_run(run, spec, route, ref, median(walls.host[0]));
  }
}

Exec trace_exec(const SimNetwork& net, const std::vector<Injection>& inj) {
  return [&net, &inj](const Router& route, const SimConfig& cfg) {
    return run_trace(net, route, inj, cfg);
  };
}

// Salts separating the seed streams of the workloads.
enum Salt : std::uint64_t {
  kExchangeSalt = 2,
  kBoundedSalt,
  kFaultTrafficSalt,
  kFaultPlanSalt,
};

Report te512(const Context& ctx) {
  Run run(ctx, "te512", 15);
  const unsigned dim = ctx.smoke ? 6 : 9;
  const Fabric fab =
      timed_setup(run, SetupReps::kBetweenReps,
                  [&](Steps& step) { return hypercube_fabric(dim, step); });
  const std::size_t n = fab.net.num_nodes();
  SingleRunSpec spec;
  spec.exec = [&fab](const Router& route, const SimConfig& cfg) {
    return run_total_exchange(fab.net, route, cfg);
  };
  spec.cfg.packet_length_flits = 16;
  spec.expect_delivered = n * (n - 1);
  spec.reference_oracle = true;
  single_run_body(run, spec, fab.router);
  return run.finish();
}

struct ExchangeInputs {
  Fabric fab;
  std::vector<Injection> schedule;
};

ExchangeInputs exchange_inputs(std::size_t levels, std::size_t rounds,
                               std::uint64_t seed, Steps& step,
                               std::size_t stride = 1) {
  Fabric fab = hsn_fabric(levels, 4, step);
  std::vector<Injection> schedule = step("traffic.schedule", [&] {
    return permutation_exchange(fab.net.num_nodes(), rounds, seed, stride);
  });
  return {std::move(fab), std::move(schedule)};
}

Report exchange65k(const Context& ctx) {
  Run run(ctx, "exchange65k", 7);
  const std::uint64_t seed = util::derive_seed(ctx.seed, kExchangeSalt);
  const ExchangeInputs in = timed_setup(run, SetupReps::kUpFront, [&](Steps& step) {
    return exchange_inputs(ctx.smoke ? 2 : 4, 1, seed, step, 2);
  });
  SingleRunSpec spec;
  spec.exec = trace_exec(in.fab.net, in.schedule);
  spec.cfg.packet_length_flits = 16;
  spec.expect_delivered = in.schedule.size();
  single_run_body(run, spec, in.fab.router);
  return run.finish();
}

Report bounded65k(const Context& ctx) {
  Run run(ctx, "bounded65k", 9);
  const std::uint64_t seed = util::derive_seed(ctx.seed, kBoundedSalt);
  // One round from every 32nd node (2,048 packets): a kSharded bounded run
  // costs ~6x a kArena one, and this keeps it near 0.5 s.
  const ExchangeInputs in = timed_setup(run, SetupReps::kUpFront, [&](Steps& step) {
    return exchange_inputs(ctx.smoke ? 2 : 4, 1, seed, step, 32);
  });
  SingleRunSpec spec;
  spec.exec = trace_exec(in.fab.net, in.schedule);
  spec.cfg.packet_length_flits = 16;
  // This load ran 500 seeds at 8 without a waiting cycle, while full
  // cyclic-offset exchanges deadlock at 8 on most offsets.
  spec.cfg.node_buffer_packets = 8;
  spec.expect_delivered = in.schedule.size();
  single_run_body(run, spec, in.fab.router);
  return run.finish();
}

Report faulted4k(const Context& ctx) {
  Run run(ctx, "faulted4k", 5);
  struct Inputs {
    Fabric fab;
    std::shared_ptr<const FaultPlan> plan;
  };
  const Inputs in = timed_setup(run, SetupReps::kBetweenReps, [&](Steps& step) {
    Fabric fab = ctx.smoke ? hsn_fabric(2, 3, step) : hsn_fabric(3, 4, step);
    auto plan = step("traffic.schedule", [&] {
      return std::make_shared<const FaultPlan>(FaultPlan::random_link_faults(
          fab.net.graph(), &fab.net.chips(), ctx.smoke ? 4 : 64, 10.0, 2.0,
          util::derive_seed(ctx.seed, kFaultPlanSalt)));
    });
    return Inputs{std::move(fab), std::move(plan)};
  });
  const std::size_t cycles = ctx.smoke ? 200 : 150;
  const SimNetwork& net = in.fab.net;
  SingleRunSpec spec;
  spec.exec = [&net, cycles](const Router& route, const SimConfig& cfg) {
    return run_open(net, route, uniform_traffic(net.num_nodes()), 0.05, cycles,
                    cfg);
  };
  spec.cfg.packet_length_flits = 16;
  spec.cfg.seed = util::derive_seed(ctx.seed, kFaultTrafficSalt);
  spec.cfg.fault_plan = in.plan;
  spec.cfg.max_retries = 4;
  spec.healthy_companion = true;
  single_run_body(run, spec, in.fab.router);
  return run.finish();
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"te512", te512},
      {"exchange65k", exchange65k},
      {"bounded65k", bounded65k},
      {"faulted4k", faulted4k},
  };
  return defs;
}

}  // namespace ipg::bench
