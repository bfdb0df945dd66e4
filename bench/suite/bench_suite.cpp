// bench_suite: the simulator stack's benchmark (README.md in this directory
// documents the workloads, the metrics and how to compare two runs).
//
//   bench_suite [--workload all|NAME] [--seed S] [--reps R] [--seconds S]
//               [--trace FILE] [--json FILE] [--smoke] [--scratch DIR]
//               [--baselines DIR]
//
// With no arguments it runs --smoke. Each workload runs in its own
// re-executed child process, so peak_rss_mb (the process's memory
// high-water mark) belongs to that workload alone. Results print as
// `workload metric value unit` lines; --json writes them with their
// samples, digests and checks; --trace writes the traced reps' spans as
// Chrome trace_event JSON. The exit code is 0 only when every correctness
// check passed.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "suite.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ipg;
using namespace ipg::bench;
namespace fs = std::filesystem;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  std::size_t reps = 0;
  double seconds = 0;
  bool smoke = false;
  std::string trace_path;
  std::string json_path;
  std::string scratch = "bench_suite.scratch";
  std::string baselines = std::string(BENCH_SUITE_DIR) + "/baselines";
  // Set only in the re-executed child: which workload to run and where to
  // write its report (and its spans, when traced).
  std::string child;
  std::string child_out;
  std::string child_trace;
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--workload all|NAME] [--seed S] [--reps R] [--seconds S]\n"
               "       [--trace FILE] [--json FILE] [--smoke] [--scratch DIR]\n"
               "       [--baselines DIR]\nworkloads:";
  for (const WorkloadDef& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  if (argc == 1) o.smoke = true;
  const std::map<std::string, std::string*> text_flags = {
      {"--workload", &o.workload},   {"--trace", &o.trace_path},
      {"--json", &o.json_path},      {"--scratch", &o.scratch},
      {"--baselines", &o.baselines}, {"--child", &o.child},
      {"--child-out", &o.child_out}, {"--child-trace", &o.child_trace}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (arg == "--seed" || arg == "--reps") {
      const auto v = util::checked_flag_value<std::uint64_t>(arg, value, std::cerr);
      if (!v.has_value()) return std::nullopt;
      (arg == "--seed" ? o.seed : o.reps) = *v;
    } else if (arg == "--seconds") {
      const auto secs =
          value != nullptr ? util::parse_double(value) : std::nullopt;
      if (!secs.has_value() || !(*secs > 0)) {
        std::cerr << "error: --seconds expects a positive number\n";
        return std::nullopt;
      }
      o.seconds = *secs;
    } else if (const auto flag = text_flags.find(arg); flag != text_flags.end()) {
      if (value == nullptr) {
        std::cerr << "error: " << arg << " needs a value\n";
        return std::nullopt;
      }
      *flag->second = value;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      return std::nullopt;
    }
  }
  const bool known =
      o.workload == "all" ||
      std::any_of(workloads().begin(), workloads().end(),
                  [&](const WorkloadDef& w) { return o.workload == w.name; });
  if (!known) {
    std::cerr << "error: unknown workload '" << o.workload << "'\n";
    return std::nullopt;
  }
  return o;
}

std::size_t threads_t() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
}

// --- child side ----------------------------------------------------------------

/// Runs one workload and writes its report as tab-separated lines.
int run_child(const Options& o) {
  const auto def =
      std::find_if(workloads().begin(), workloads().end(),
                   [&](const WorkloadDef& w) { return o.child == w.name; });
  if (def == workloads().end()) return 2;
  // Keep freed memory in the process instead of returning it to the kernel,
  // so timed reps reuse the pages the warm-up rep faulted in. Returned pages
  // must be faulted in again by the next rep; on a VM host that reclaims free
  // guest pages that cost varied from rep to rep and from run to run.
  // Allocations above the fixed mmap threshold (32 MiB, glibc's maximum)
  // are still mapped and unmapped each time.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Context ctx;
  ctx.seed = o.seed;
  ctx.smoke = o.smoke;
  ctx.reps = o.reps;
  ctx.seconds = o.seconds;
  ctx.threads = threads_t();
  Tracer tracer;
  if (!o.child_trace.empty()) ctx.tracer = &tracer;

  // The workload runs on the single worker of its own pool, so every
  // parallel path of the library runs inline on that one thread.
  Report r;
  try {
    util::ThreadPool one(1);
    one.submit([&] { r = def->run(ctx); });
    one.wait();
  } catch (const std::exception& e) {
    std::cerr << "[" << o.child << "] failed: " << e.what() << "\n";
    return 1;
  }
  std::ofstream out(o.child_out);
  out << std::setprecision(17);
  out << "digest\t" << std::hex << std::setw(16) << std::setfill('0')
      << r.digest << std::dec << "\n";
  out << "attempted\t" << r.attempted << "\nreps\t" << r.reps << "\n";
  for (const std::string& f : r.failures) out << "failure\t" << f << "\n";
  for (const Metric& m : r.e2e) {
    out << "e2e\t" << m.name << "\t" << m.value << "\t" << m.unit << "\t";
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      out << (i > 0 ? "," : "") << m.samples[i];
    }
    out << "\n";
  }
  for (const Metric& m : r.layer) {
    out << "layer\t" << m.name << "\t" << m.value << "\t" << m.unit << "\t"
        << (m.exact ? 1 : 0) << "\n";
  }
  if (ctx.tracer != nullptr) {
    std::ofstream trace(o.child_trace);
    const auto index = static_cast<int>(def - workloads().begin());
    tracer.write_events(trace, index + 1, o.child);
  }
  return out.good() ? 0 : 1;
}

// --- parent side ---------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  std::string digest;
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  std::size_t reps = 0;
  double wall_s = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  if (!s.empty() && s.back() == sep) parts.emplace_back();
  return parts;
}

bool parse_report(const fs::path& path, WorkloadResult& w) {
  std::ifstream in(path);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split(line, '\t');
    if (f.size() < 2) return false;
    any = true;
    if (f[0] == "digest") {
      w.digest = f[1];
    } else if (f[0] == "attempted") {
      w.attempted += std::stoull(f[1]);
    } else if (f[0] == "reps") {
      w.reps = std::stoull(f[1]);
    } else if (f[0] == "failure") {
      w.failures.push_back(f[1]);
    } else if (f[0] == "e2e" && f.size() == 5) {
      Metric m{f[1], std::stod(f[2]), f[3], false, {}};
      if (!f[4].empty()) {
        for (const std::string& s : split(f[4], ',')) m.samples.push_back(std::stod(s));
      }
      w.e2e.push_back(std::move(m));
    } else if (f[0] == "layer" && f.size() == 5) {
      w.layer.push_back({f[1], std::stod(f[2]), f[3], f[4] == "1", {}});
    } else {
      return false;
    }
  }
  return any;
}

/// The committed digest of @p workload in baselines/seed<S>.json, if any.
/// The file is bench_suite's own --json output; its "digests" object holds
/// one `"name": "hex"` member per workload.
std::optional<std::string> baseline_digest(const fs::path& file,
                                           const std::string& workload) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t block = text.find("\"digests\": {");
  if (block == std::string::npos) return std::nullopt;
  const std::size_t close = text.find('}', block);
  const std::string member = "\"" + workload + "\": \"";
  const std::size_t at = text.find(member, block);
  if (at == std::string::npos || at > close) return std::nullopt;
  const std::size_t start = at + member.size();
  const std::size_t stop = text.find('"', start);
  return text.substr(start, stop - start);
}

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles by the exclusive method (Python's statistics.quantiles).
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double h = std::clamp((static_cast<double>(v.size()) + 1) * p - 1, 0.0,
                                static_cast<double>(v.size() - 1));
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Runs workload @p def in a child process and collects its report.
WorkloadResult run_workload(const Options& o, const WorkloadDef& def,
                            const fs::path& run_dir, bool traced) {
  WorkloadResult w;
  w.name = def.name;
  const fs::path out = run_dir / (w.name + ".report");
  const fs::path trace = run_dir / (w.name + ".trace");
  std::vector<std::string> args = {"bench_suite", "--child", w.name,
                                   "--child-out", out.string(), "--seed",
                                   std::to_string(o.seed)};
  if (o.smoke) args.emplace_back("--smoke");
  if (o.reps > 0) {
    args.insert(args.end(), {"--reps", std::to_string(o.reps)});
  }
  if (o.seconds > 0) {
    std::ostringstream secs;
    secs << std::setprecision(17) << o.seconds;
    args.insert(args.end(), {"--seconds", secs.str()});
  }
  if (traced) args.insert(args.end(), {"--child-trace", trace.string()});

  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::cerr << "[bench_suite] " << w.name << " (seed " << o.seed << ")\n";
  const Clock::time_point start = Clock::now();
  std::cout.flush();
  std::cerr.flush();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // The workload dies with the suite, so an interrupted run leaves no
    // process behind.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(126);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  int status = 0;
  const bool waited = pid > 0 && waitpid(pid, &status, 0) == pid;
  w.wall_s = seconds_between(start, Clock::now());
  const bool exited_ok = waited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  w.check(exited_ok && parse_report(out, w),
          "workload process completed and wrote its report");
  if (!exited_ok) return w;

  // The report schema: every metric, by name, finite and never zero.
  for (const char* name : kE2eMetrics) {
    const auto m = std::find_if(w.e2e.begin(), w.e2e.end(),
                                [&](const Metric& x) { return x.name == name; });
    w.check(m != w.e2e.end() && std::isfinite(m->value) && m->value > 0,
            std::string("end-to-end metric ") + name + " reported and positive");
  }
  if (traced) {
    for (const LayerMetricDef& d : kLayerMetrics) {
      const auto m = std::find_if(w.layer.begin(), w.layer.end(),
                                  [&](const Metric& x) { return x.name == d.name; });
      w.check(m != w.layer.end() && std::isfinite(m->value),
              std::string("per-layer metric ") + d.name + " reported");
    }
  }
  if (!o.smoke) {
    const fs::path file =
        fs::path(o.baselines) / ("seed" + std::to_string(o.seed) + ".json");
    if (const auto want = baseline_digest(file, w.name); want.has_value()) {
      w.check(*want == w.digest, "sim_digest " + w.digest + " matches " +
                                     file.filename().string() + " (" + *want + ")");
    }
  }
  return w;
}

void print_result(const WorkloadResult& w) {
  std::cout << std::setprecision(7);
  for (const Metric& m : w.e2e) {
    std::cout << w.name << ' ' << m.name << ' ' << m.value << ' ' << m.unit;
    if (m.samples.size() > 1) {
      const Quartiles q = quartiles(m.samples);
      std::cout << "  # median of " << m.samples.size() << "; q1 " << q.q1
                << ", q3 " << q.q3;
    }
    std::cout << '\n';
  }
  for (const Metric& m : w.layer) {
    std::cout << w.name << ' ' << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  std::cout << w.name << " sim_digest " << w.digest << " hex\n"
            << w.name << " checks_failed " << w.failures.size() << " of "
            << w.attempted << '\n';
  for (const std::string& f : w.failures) {
    std::cerr << "FAIL [" << w.name << "] " << f << '\n';
  }
}

void write_json(std::ostream& os, const Options& o, bool traced,
                const std::vector<WorkloadResult>& results) {
  os << std::setprecision(17);
  util::JsonWriter j(os);
  j.begin_object()
      .field("schema", "bench-suite-v1")
      .field("seed", o.seed)
      .field("smoke", o.smoke)
      .field("traced", traced)
      .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("threads", static_cast<std::uint64_t>(threads_t()))
      .field("build_type", BENCH_SUITE_BUILD_TYPE)
      .field("reps", static_cast<std::uint64_t>(o.reps))
      .field("seconds", o.seconds);
  j.begin_object("digests");
  for (const WorkloadResult& w : results) j.field(w.name, w.digest);
  j.end_object();
  j.begin_object("workloads");
  for (const WorkloadResult& w : results) {
    j.begin_object(w.name)
        .field("attempted", static_cast<std::uint64_t>(w.attempted))
        .field("failed", static_cast<std::uint64_t>(w.failures.size()))
        .field("reps", static_cast<std::uint64_t>(w.reps))
        .field("wall_s", w.wall_s);
    j.begin_array("failures");
    for (const std::string& f : w.failures) j.value(f);
    j.end_array();
    j.begin_object("e2e");
    for (const Metric& m : w.e2e) {
      j.begin_object(m.name).field("value", m.value).field("unit", m.unit);
      if (!m.samples.empty()) {
        const Quartiles q = quartiles(m.samples);
        j.field("q1", q.q1).field("median", q.median).field("q3", q.q3);
        j.begin_array("samples");
        for (const double s : m.samples) j.value(s);
        j.end_array();
      }
      j.end_object();
    }
    j.end_object();
    j.begin_object("layer");
    for (const Metric& m : w.layer) {
      j.begin_object(m.name)
          .field("value", m.value)
          .field("unit", m.unit)
          .field("exact", m.exact)
          .end_object();
    }
    j.end_object();
    j.end_object();
  }
  j.end_object();
  j.end_object();
  os << '\n';
}

/// Concatenates the children's event lines into one trace_event document.
void write_trace(const fs::path& path, const fs::path& run_dir,
                 const std::vector<WorkloadResult>& results) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const WorkloadResult& w : results) {
    std::ifstream in(run_dir / (w.name + ".trace"));
    std::string line;
    while (std::getline(in, line)) {
      out << (first ? "" : ",\n") << line;
      first = false;
    }
  }
  out << "\n]}\n";
}

int run_parent(const Options& o) {
  const bool traced = o.smoke || !o.trace_path.empty();
  const fs::path run_dir =
      fs::path(o.scratch) / ("run-" + std::to_string(getpid()));
  fs::create_directories(run_dir);
  std::vector<WorkloadResult> results;
  for (const WorkloadDef& def : workloads()) {
    if (o.workload != "all" && o.workload != def.name) continue;
    results.push_back(run_workload(o, def, run_dir, traced));
    print_result(results.back());
  }
  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    write_json(out, o, traced, results);
  }
  if (!o.trace_path.empty()) write_trace(o.trace_path, run_dir, results);
  fs::remove_all(run_dir);
  std::error_code ignored;
  fs::remove(o.scratch, ignored);  // only if no other run is using it

  std::size_t failed = 0, attempted = 0;
  for (const WorkloadResult& w : results) {
    failed += w.failures.size();
    attempted += w.attempted;
  }
  std::cout << "all checks_failed " << failed << " of " << attempted << '\n';
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse_args(argc, argv);
  if (!o.has_value()) {
    usage(argv[0]);
    return 2;
  }
  return o->child.empty() ? run_parent(*o) : run_child(*o);
}
