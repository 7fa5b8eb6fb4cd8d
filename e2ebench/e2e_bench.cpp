// End-to-end benchmark program for the paper's own exhaustive workloads.
//
// One invocation runs one engine once on one workload and prints one JSON
// line.  e2ebench/run.py builds this binary, calls it once per engine run
// (so every run starts from a fresh heap and its peak resident set is its
// own), takes medians and prints the benchmark's result line.
//
//   e2e_bench --workload <sim-covering|aug-plain|aug-dedupe>
//             --engine <serial|parallel|dist|setup> [--traced]
//
// Workloads (fixed, exhaustive instances; see e2ebench/README.md):
//   sim-covering  SimulationDriver, f=4 covering simulators (d=0) over a
//                 1-component augmented snapshot (atomic substrate),
//                 simulating RacingAgreement(n=4, m=1), inputs {10,20,30,40};
//                 verdict = Lemma-26 validator + input validity.  Dedupe off.
//   aug-plain     AugmentedSnapshot m=2, two processes: p0 = Block-Update{0},
//                 Scan; p1 = Block-Update{1}, Scan, Scan; verdict =
//                 aug::linearize.  Dedupe off.
//   aug-dedupe    aug-plain with dedupe_states on.
//
// Engines: serial = check::explore_schedules; parallel = check::
// parallel_explore_schedules at 2 threads; dist = dist::
// dist_explore_schedules in fork mode at 2 workers; setup = one
// one-execution dist-2 run (engine start-up and teardown).
//
// --traced wraps every world in TracedWorld, which times the factory,
// verdict() and fingerprint() from outside and sums scheduler steps when a
// world is destroyed.  It is transparent: the explorer sees the same states,
// fingerprints and verdicts.  Dist runs are never wrapped (the counters
// would stay inside the forked workers); their layer numbers come from
// rusage and the loopback interface counters instead.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/dist/coordinator.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/util/fingerprint.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define E2EBENCH_COMPILER "clang " __clang_version__
#else
#define E2EBENCH_COMPILER "g++ " __VERSION__
#endif

namespace revisim::e2ebench {
namespace {

using check::ExplorableWorld;
using Clock = std::chrono::steady_clock;
using Factory = std::function<std::unique_ptr<ExplorableWorld>()>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// A time point in seconds of the monotonic clock, which e2e_ruler stamps
// its chunks with too.
double clock_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// --- worlds ---------------------------------------------------------------

class SimCoveringWorld final : public ExplorableWorld {
 public:
  SimCoveringWorld()
      : protocol_(4, 1), driver_(sched_, protocol_, kInputs, options()) {}

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (!complete) {
      return "execution did not finish within the depth bound";
    }
    auto report = sim::validate_simulation(driver_);
    if (!report.ok()) {
      return report.violations.front();
    }
    for (Val y : driver_.outputs()) {
      if (y != 10 && y != 20 && y != 30 && y != 40) {
        return "output " + std::to_string(y) + " is not an input";
      }
    }
    return std::nullopt;
  }

 private:
  static inline const std::vector<Val> kInputs{10, 20, 30, 40};

  static sim::SimulationDriver::Options options() {
    sim::SimulationDriver::Options opt;
    opt.d = 0;
    opt.substrate = sim::SimulationDriver::Substrate::kAtomicSnapshot;
    return opt;
  }

  runtime::Scheduler sched_;
  proto::RacingAgreement protocol_;
  sim::SimulationDriver driver_;
};

runtime::Task<void> update_then_scans(aug::AugmentedSnapshot& m,
                                      runtime::ProcessId me, std::size_t comp,
                                      Val val, std::size_t scans) {
  std::vector<std::size_t> comps{comp};
  std::vector<Val> vals{val};
  co_await m.BlockUpdate(me, std::move(comps), std::move(vals));
  for (std::size_t i = 0; i < scans; ++i) {
    co_await m.Scan(me);
  }
}

class AugWorld final : public ExplorableWorld {
 public:
  AugWorld() : m_(sched_, "M", 2, 2) {
    sched_.spawn(update_then_scans(m_, 0, 0, 10, 1), "p0");
    sched_.spawn(update_then_scans(m_, 1, 1, 20, 2), "p1");
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (!complete) {
      return "execution did not finish within the depth bound";
    }
    auto lin = aug::linearize(m_.log(), 2);
    if (!lin.ok()) {
      return lin.violations.front();
    }
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  aug::AugmentedSnapshot m_;
};

struct Workload {
  std::string name;
  Factory factory;
  bool dedupe = false;
  // Exact exhaustive counts: executions with dedupe off; with dedupe on,
  // the undeduped execution count and the serial state count bound every
  // engine's result.
  std::size_t exact_executions = 0;
  std::size_t max_states = 0;
};

Workload make_workload(const std::string& name) {
  if (name == "sim-covering") {
    return {name, [] { return std::make_unique<SimCoveringWorld>(); }, false,
            369'600, 0};
  }
  if (name == "aug-plain") {
    return {name, [] { return std::make_unique<AugWorld>(); }, false, 257'566,
            0};
  }
  if (name == "aug-dedupe") {
    return {name, [] { return std::make_unique<AugWorld>(); }, true, 257'566,
            855'980};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// --- tracing wrapper --------------------------------------------------------

struct LayerCounters {
  std::atomic<std::uint64_t> builds{0};
  std::atomic<std::uint64_t> build_ns{0};
  std::atomic<std::uint64_t> verdicts{0};
  std::atomic<std::uint64_t> verdict_ns{0};
  std::atomic<std::uint64_t> fingerprints{0};
  std::atomic<std::uint64_t> fingerprint_ns{0};
  std::atomic<std::uint64_t> steps{0};
};

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

class TracedWorld final : public ExplorableWorld {
 public:
  TracedWorld(std::unique_ptr<ExplorableWorld> inner, LayerCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  ~TracedWorld() override {
    counters_.steps.fetch_add(inner_->scheduler().total_steps(),
                              std::memory_order_relaxed);
  }
  TracedWorld(const TracedWorld&) = delete;
  TracedWorld& operator=(const TracedWorld&) = delete;

  runtime::Scheduler& scheduler() override { return inner_->scheduler(); }

  std::optional<std::string> verdict(bool complete) override {
    const auto t0 = Clock::now();
    auto v = inner_->verdict(complete);
    counters_.verdict_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
    counters_.verdicts.fetch_add(1, std::memory_order_relaxed);
    return v;
  }

  util::Fingerprint fingerprint() override {
    const auto t0 = Clock::now();
    auto fp = inner_->fingerprint();
    counters_.fingerprint_ns.fetch_add(ns_since(t0),
                                       std::memory_order_relaxed);
    counters_.fingerprints.fetch_add(1, std::memory_order_relaxed);
    return fp;
  }

  void fingerprint_extra(util::StateSink& sink) override {
    inner_->fingerprint_extra(sink);
  }

  std::string canonical_state() override { return inner_->canonical_state(); }

 private:
  std::unique_ptr<ExplorableWorld> inner_;
  LayerCounters& counters_;
};

Factory traced_factory(const Factory& inner, LayerCounters& counters) {
  return [inner, &counters]() -> std::unique_ptr<ExplorableWorld> {
    const auto t0 = Clock::now();
    auto world = inner();
    counters.build_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
    counters.builds.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TracedWorld>(std::move(world), counters);
  };
}

// --- host measurements ------------------------------------------------------

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// Largest peak resident set among the reaped children (ru_maxrss, KiB).
double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// This process's peak resident set (VmHWM).  Unlike getrusage's
// ru_maxrss, which Linux carries across execve, it does not include the
// parent's image at the fork that started this process.
double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct NetCounters {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

// Received bytes and packets on the loopback interface.  Every dist frame
// crosses loopback once, so the delta over a run is its wire traffic (plus
// whatever else talks over loopback meanwhile).
NetCounters loopback_counters() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string iface = line.substr(0, colon);
    iface.erase(0, iface.find_first_not_of(' '));
    if (iface != "lo") {
      continue;
    }
    std::istringstream fields(line.substr(colon + 1));
    NetCounters c;
    fields >> c.bytes >> c.packets;
    return c;
  }
  return {};
}

// --- result digest ----------------------------------------------------------

// Digest of (executions, exhausted, violation, witness): two runs with the
// same digest reported the same search outcome.
std::string result_digest(const check::ScheduleExploreResult& res) {
  util::HashSink sink;
  sink.word(res.executions);
  sink.word(res.exhausted ? 1 : 0);
  sink.word(res.violation ? 1 : 0);
  if (res.violation) {
    for (char c : *res.violation) {
      sink.word(static_cast<unsigned char>(c));
    }
  }
  sink.word(res.witness.size());
  for (auto p : res.witness) {
    sink.word(static_cast<std::uint64_t>(p));
  }
  const auto fp = sink.digest();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

// --- correctness gate -------------------------------------------------------

// Why a run's result fails its workload's check, or nullopt if it passes.
std::optional<std::string> check_result(const Workload& w,
                                        const check::ScheduleExploreResult& r,
                                        bool serial) {
  if (r.violation) {
    return "violation: " + *r.violation;
  }
  if (r.error) {
    return "error: " + *r.error;
  }
  if (!r.exhausted) {
    return "search not exhausted";
  }
  if (!w.dedupe) {
    if (r.executions != w.exact_executions) {
      return "executions " + std::to_string(r.executions) + " != " +
             std::to_string(w.exact_executions);
    }
    return std::nullopt;
  }
  if (r.states_seen == 0 || r.states_seen > w.max_states) {
    return "states_seen " + std::to_string(r.states_seen) + " not in (0, " +
           std::to_string(w.max_states) + "]";
  }
  if (r.executions > w.exact_executions) {
    return "executions " + std::to_string(r.executions) +
           " exceed the undeduped " + std::to_string(w.exact_executions);
  }
  // The serial deduped walk is deterministic: its counts are exact.
  if (serial && (r.executions != 209'475 || r.states_seen != 855'980 ||
                 r.subtrees_pruned != 19'985)) {
    return "serial dedupe counts (" + std::to_string(r.executions) + ", " +
           std::to_string(r.states_seen) + ", " +
           std::to_string(r.subtrees_pruned) +
           ") != (209475, 855980, 19985)";
  }
  return std::nullopt;
}

// --- JSON output ------------------------------------------------------------

class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  // Microseconds, whatever the magnitude: for clock readings.
  JsonLine& time(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return raw(key, buf);
  }
  JsonLine& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& flag(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
      } else {
        quoted += c;
      }
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  void print() const {
    std::printf("%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

// --- engines ----------------------------------------------------------------

constexpr std::size_t kWidth = 2;  // parallel threads / dist workers

check::ScheduleExploreOptions base_options(const Workload& w) {
  check::ScheduleExploreOptions opt;
  opt.max_executions = 1'000'000'000;  // uncapped: every tree is walked whole
  opt.dedupe_states = w.dedupe;
  return opt;
}

dist::DistExploreOptions dist_options(const Workload& w) {
  dist::DistExploreOptions opt;
  opt.base = base_options(w);
  opt.workers = kWidth;
  return opt;
}

void add_result(JsonLine& line, const Workload& w,
                const check::ScheduleExploreResult& res, bool serial) {
  const auto failure = check_result(w, res, serial);
  line.flag("pass", !failure)
      .str("failure", failure.value_or(""))
      .count("executions", res.executions)
      .flag("exhausted", res.exhausted)
      .count("states_seen", res.states_seen)
      .count("subtrees_pruned", res.subtrees_pruned)
      .count("jobs", res.jobs)
      .count("steals", res.steals)
      .count("replay_steps_saved", res.replay_steps_saved)
      .str("digest", result_digest(res));
}

void add_layers(JsonLine& line, const LayerCounters& c) {
  line.count("world_builds", c.builds.load())
      .num("world_build_s", static_cast<double>(c.build_ns.load()) * 1e-9)
      .count("verdict_calls", c.verdicts.load())
      .num("verdict_s", static_cast<double>(c.verdict_ns.load()) * 1e-9)
      .count("fingerprint_calls", c.fingerprints.load())
      .num("fingerprint_s",
           static_cast<double>(c.fingerprint_ns.load()) * 1e-9)
      .count("steps", c.steps.load());
}

void run_in_process(const Workload& w, bool parallel, bool traced) {
  LayerCounters counters;
  const Factory factory =
      traced ? traced_factory(w.factory, counters) : w.factory;
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const auto t0 = Clock::now();
  check::ScheduleExploreResult res;
  // Executions the parallel engine walks in its discarded serial probe
  // before the pool starts (every workload's tree is larger than the probe).
  std::size_t probe_executions = 0;
  if (parallel) {
    check::ParallelExploreOptions opt;
    opt.base = base_options(w);
    opt.threads = kWidth;
    probe_executions = opt.serial_probe_executions;
    res = check::parallel_explore_schedules(factory, opt);
  } else {
    res = check::explore_schedules(factory, base_options(w));
  }
  const auto t1 = Clock::now();
  const double cpu = cpu_seconds(RUSAGE_SELF) - cpu0;
  JsonLine line;
  line.str("engine", parallel ? "parallel" : "serial")
      .flag("traced", traced)
      .num("wall_s", std::chrono::duration<double>(t1 - t0).count())
      .time("t_start", clock_s(t0))
      .time("t_end", clock_s(t1))
      .num("cpu_s", cpu)
      .num("peak_rss_mb", self_peak_rss_mb());
  add_result(line, w, res, !parallel);
  if (traced) {
    add_layers(line, counters);
    line.count("probe_executions", probe_executions);
  }
  line.print();
}

void run_dist(const Workload& w) {
  const auto net0 = loopback_counters();
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  const auto t0 = Clock::now();
  const auto res = dist::dist_explore_schedules(w.factory, dist_options(w));
  const auto t1 = Clock::now();
  const double cpu = cpu_seconds(RUSAGE_SELF) - cpu0;
  const auto net1 = loopback_counters();
  JsonLine line;
  line.str("engine", "dist")
      .flag("traced", false)
      .num("wall_s", std::chrono::duration<double>(t1 - t0).count())
      .time("t_start", clock_s(t0))
      .time("t_end", clock_s(t1))
      .num("coord_cpu_s", cpu)
      .num("worker_cpu_s", cpu_seconds(RUSAGE_CHILDREN))
      .num("worker_peak_rss_mb", children_peak_rss_mb())
      .count("wire_bytes", net1.bytes - net0.bytes)
      .count("wire_packets", net1.packets - net0.packets);
  add_result(line, w, res, false);
  line.print();
}

// Engine start-up and teardown: a one-execution dist-2 run.
void run_setup(const Workload& w) {
  auto opt = dist_options(w);
  opt.base.max_executions = 1;
  const auto t0 = Clock::now();
  const auto res = dist::dist_explore_schedules(w.factory, opt);
  const double wall = seconds_since(t0);
  const bool pass = !res.violation && !res.error && res.executions == 1;
  JsonLine line;
  line.str("engine", "setup")
      .num("wall_s", wall)
      .flag("pass", pass)
      .str("failure", pass ? "" : "one-execution run did not end cleanly");
  line.print();
}

void print_host() {
  JsonLine line;
  line.str("engine", "host")
      .count("hardware_concurrency", std::thread::hardware_concurrency())
      .str("compiler", E2EBENCH_COMPILER)
      .str("build_type", E2EBENCH_BUILD_TYPE);
  line.print();
}

int run(int argc, char** argv) {
  std::string workload;
  std::string engine;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--engine" && has_value) {
      engine = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (engine == "host") {
    print_host();
    return 0;
  }
  const Workload w = make_workload(workload);
  if (engine == "serial" || engine == "parallel") {
    run_in_process(w, engine == "parallel", traced);
  } else if (engine == "dist" && !traced) {
    run_dist(w);
  } else if (engine == "setup" && !traced) {
    run_setup(w);
  } else {
    std::fprintf(stderr, "e2e_bench: bad engine '%s'\n", engine.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace revisim::e2ebench

int main(int argc, char** argv) {
  try {
    return revisim::e2ebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
