// E13 - model-checker throughput: scheduler hot path and parallel scaling.
//
// Claim: the explorer's replay loop is cheap enough for >=10^5-execution
// sweeps; disabling trace recording (fast mode) buys a constant-factor
// speedup with bit-identical results, and the work-stealing parallel
// explorer returns the same (executions, exhausted, violation, witness)
// for every thread count while never regressing below the serial fast
// path - its worker count is clamped to the hardware concurrency, so extra
// requested threads cost nothing on saturated cores.
//
// Run with instance names as arguments to bench only those instances
// (the CI scaling smoke runs the two register instances this way).
//
// Three instances:
//   register-script (5,5,4) - three processes doing 5/5/4 register writes;
//     multinomial(14;5,5,4) = 252,252 executions of depth 14 with a trivial
//     verdict, isolating scheduler + replay cost.
//   collect-writers (4,4,3) - writers-only traffic on the tagged-collect
//     snapshot: real Fingerprintable shared objects whose canonical state
//     collapses to the per-process progress tuple.
//   augmented 3-proc        - the §3 augmented snapshot under a 3-process
//     mixed script (registry world aug-script:2,u0,w,ss) with full
//     linearization verdicts, capped at 30,000 executions: the realistic
//     verdict-heavy workload.
//
// Each instance additionally runs with dedupe_states on (serial and
// parallel): transposition pruning must preserve the violation verdict
// while executions shrink to the number of distinct subtrees - a
// combinatorial reduction on the script/collect worlds, and honestly ~1x on
// the augmented world, whose operation log (global step indices) makes
// states essentially unique.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/dist/coordinator.h"
#include "src/memory/collect_snapshot.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"

namespace {

using namespace revisim;
using check::ExplorableWorld;
using check::explore_schedules;
using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::StepKind;
using runtime::Task;

Task<void> write_script(mem::TypedRegister<int>& reg, std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(static_cast<int>(i) + 1);
  }
}

// Three register writers, each on its *own* register; the 252,252-leaf
// hot-path instance.  Per-process registers keep the tree shape (every
// process always runnable, multinomial leaf count).
class ScriptWorld final : public ExplorableWorld {
 public:
  explicit ScriptWorld(std::vector<std::size_t> writes) {
    regs_.reserve(writes.size());
    for (std::size_t p = 0; p < writes.size(); ++p) {
      regs_.push_back(std::make_unique<mem::TypedRegister<int>>(
          sched_, "r" + std::to_string(p), 0));
      sched_.spawn(write_script(*regs_[p], writes[p]), "q");
    }
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override { return std::nullopt; }

 private:
  Scheduler sched_;
  std::vector<std::unique_ptr<mem::TypedRegister<int>>> regs_;
};

Task<void> upd_script(mem::CollectSnapshot& snap, ProcessId me,
                      std::size_t updates) {
  for (std::size_t i = 0; i < updates; ++i) {
    co_await snap.update(me, me, Val(100 * (me + 1) + i));
  }
}

// Writers-only tagged-collect traffic: every shared object is a registered
// state source, and the canonical state is a function of the per-process
// progress tuple, so transpositions merge aggressively.  The verdict reads
// only shared contents (sound for dedupe with no fingerprint_extra).
class CollectWorld final : public ExplorableWorld {
 public:
  explicit CollectWorld(std::vector<std::size_t> writes)
      : writes_(std::move(writes)),
        snap_(sched_, "S", writes_.size(), writes_.size()) {
    for (std::size_t p = 0; p < writes_.size(); ++p) {
      sched_.spawn(upd_script(snap_, p, writes_[p]), "u");
    }
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool complete) override {
    if (!complete) {
      return std::nullopt;
    }
    for (std::size_t p = 0; p < writes_.size(); ++p) {
      const Val want = Val(100 * (p + 1) + writes_[p] - 1);
      if (snap_.peek(p) != want) {
        return "component " + std::to_string(p) + " lost its last update";
      }
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  std::vector<std::size_t> writes_;
  mem::CollectSnapshot snap_;
};

struct Measured {
  ScheduleExploreResult result;
  double seconds = 0;
};

template <typename Fn>
Measured timed(Fn&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  Measured m;
  m.result = run();
  m.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return m;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// Times `a` and `b` alternately, `runs` times each, and returns each one's
// first result with its median wall clock.  Gate 1 of tools/scaling_smoke.py
// compares such a pair: a tree that walks in a few milliseconds moves one
// timed run by about its own length on a shared host, and alternating puts
// both medians in the same phases of the host's load.
template <typename A, typename B>
std::pair<Measured, Measured> timed_medians(std::size_t runs, A&& a, B&& b) {
  Measured first_a = timed(a);
  Measured first_b = timed(b);
  std::vector<double> sa{first_a.seconds};
  std::vector<double> sb{first_b.seconds};
  while (sa.size() < runs) {
    sa.push_back(timed(a).seconds);
    sb.push_back(timed(b).seconds);
  }
  first_a.seconds = median(std::move(sa));
  first_b.seconds = median(std::move(sb));
  return {std::move(first_a), std::move(first_b)};
}

// Digest of (executions, exhausted, violation, witness), the recipe of
// e2ebench's result_digest: two rows with the same digest report the same
// search outcome, so a re-recorded file shows it measured the same searches.
// A digest is a pin only where the search is deterministic: every kExact
// row (serial-traced, serial-fast, parallel-N, dist-workers-N,
// dist-workers-2-heartbeat), serial-dedupe and dist-dedupe-workers-1.
// dist-dedupe-workers-2 and -4 are samples: each worker dedupes against
// its own table, so which worker claims a state first decides the
// execution count (on register-script-554 and collect-writers-443 three
// runs gave 1, 2 or 3 executions).
// parallel-dedupe-N shares one table and is deterministic here only
// because the serial probe settles these small trees; past the probe it is
// a sample too.
std::string result_digest(const ScheduleExploreResult& res) {
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

bool same(const ScheduleExploreResult& a, const ScheduleExploreResult& b) {
  return a.executions == b.executions && a.exhausted == b.exhausted &&
         a.violation == b.violation && a.witness == b.witness;
}

bool run_instance(const std::string& name,
                  const std::function<std::unique_ptr<ExplorableWorld>()>& make,
                  std::size_t max_executions) {
  ScheduleExploreOptions traced;
  traced.max_executions = max_executions;
  traced.record_traces = true;  // the pre-fast-path explorer's behaviour
  ScheduleExploreOptions fast;
  fast.max_executions = max_executions;

  std::printf("\n  instance %s\n", name.c_str());
  std::printf("  %-22s %10s %9s %12s %8s\n", "config", "execs", "sec",
              "execs/sec", "speedup");

  const auto baseline = timed([&] { return explore_schedules(make, traced); });
  // Gate 1's rows: serial-fast and parallel-4, medians of 5 alternating
  // runs.
  check::ParallelExploreOptions popt4;
  popt4.base = fast;
  popt4.threads = 4;
  const auto [serial_fast, parallel_4] = timed_medians(
      5, [&] { return explore_schedules(make, fast); },
      [&] { return check::parallel_explore_schedules(make, popt4); });

  bool ok = true;
  // What each configuration owes the undeduped baseline:
  //   kExact  - bit-identical (executions, exhausted, violation, witness);
  //   kDedupe - violation-found / violation-free parity only (the table
  //             legitimately reroutes witnesses and collapses counts).
  enum class Mode { kExact, kDedupe };
  auto row = [&](const std::string& config, const Measured& m,
                 std::size_t threads, Mode mode) {
    const double rate = m.result.executions / std::max(m.seconds, 1e-9);
    const double speedup = baseline.seconds / std::max(m.seconds, 1e-9);
    const double reduction =
        static_cast<double>(baseline.result.executions) /
        std::max<std::size_t>(m.result.executions, 1);
    std::printf("  %-22s %10zu %9.3f %12.0f %7.2fx\n", config.c_str(),
                m.result.executions, m.seconds, rate, speedup);
    const bool identical = same(m.result, baseline.result);
    const bool parity =
        m.result.violation.has_value() == baseline.result.violation.has_value();
    switch (mode) {
      case Mode::kExact: ok = ok && identical; break;
      case Mode::kDedupe: ok = ok && parity; break;
    }
    benchutil::json_line(
        "BENCH_modelcheck.json", "modelcheck-scaling",
        {{"instance", name},
         {"config", config},
         {"threads", threads},
         {"dedupe", mode == Mode::kDedupe},
         {"executions", m.result.executions},
         {"exhausted", m.result.exhausted},
         {"states_seen", m.result.states_seen},
         {"subtrees_pruned", m.result.subtrees_pruned},
         {"jobs", m.result.jobs},
         {"steals", m.result.steals},
         {"reduction_vs_undeduped", reduction},
         {"seconds", m.seconds},
         {"execs_per_sec", rate},
         {"speedup_vs_traced", speedup},
         {"verdict_parity", parity},
         {"identical_to_baseline", identical},
         {"result_digest", result_digest(m.result)}});
  };
  row("serial-traced", baseline, 1, Mode::kExact);
  row("serial-fast", serial_fast, 1, Mode::kExact);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    check::ParallelExploreOptions popt;
    popt.base = fast;
    popt.threads = threads;
    const auto par = threads == 4 ? parallel_4 : timed([&] {
      return check::parallel_explore_schedules(make, popt);
    });
    row("parallel-" + std::to_string(threads), par, threads, Mode::kExact);
  }

  // Distributed fork-mode engine: worker processes over loopback TCP, same
  // key-sorted merge, so results stay bit-identical at every worker count.
  // The overhead vs the in-process explorer is fork + wire serialization;
  // both engines rebuild and replay each job's prefix.
  for (std::size_t workers : {1u, 2u, 4u}) {
    dist::DistExploreOptions dopt;
    dopt.base = fast;
    dopt.workers = workers;
    // Liveness off: these rows track the raw engine cost across recorded
    // runs that predate the heartbeat layer.
    dopt.heartbeat_interval_ms = 0;
    const auto d =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    row("dist-workers-" + std::to_string(workers), d, workers, Mode::kExact);
  }

  // Liveness layer on, at an interval 20x tighter than the production
  // default: pings, pongs and per-frame deadline checks ride the job
  // protocol.  scaling_smoke.py gates this row against dist-workers-2 so a
  // heartbeat implementation that stalls the pump loop fails CI.
  {
    dist::DistExploreOptions dopt;
    dopt.base = fast;
    dopt.workers = 2;
    dopt.heartbeat_interval_ms = 25;
    const auto d =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    row("dist-workers-2-heartbeat", d, 2, Mode::kExact);
  }

  // Transposition pruning on: executions legitimately shrink to the number
  // of distinct subtrees.
  ScheduleExploreOptions dedupe = fast;
  dedupe.dedupe_states = true;
  const auto serial_dedupe =
      timed([&] { return explore_schedules(make, dedupe); });
  row("serial-dedupe", serial_dedupe, 1, Mode::kDedupe);
  for (std::size_t threads : {2u, 4u}) {
    check::ParallelExploreOptions popt;
    popt.base = dedupe;
    popt.threads = threads;
    const auto par =
        timed([&] { return check::parallel_explore_schedules(make, popt); });
    row("parallel-dedupe-" + std::to_string(threads), par, threads,
        Mode::kDedupe);
  }

  // Dedupe over the wire: each worker prunes against its own table and
  // reports its first sightings one way.  Mode::kDedupe covers the
  // verdict; the explicit bound below pins the dedupe contract on
  // exhausted searches (the reports are a subset of the states the serial
  // table records).  A capped search stops at interleaving-dependent
  // points, so there the bound is no invariant.  scaling_smoke.py gate 7
  // holds dist-dedupe-workers-2 to 1.3x parallel-dedupe-2 wall clock.
  for (std::size_t workers : {1u, 2u, 4u}) {
    dist::DistExploreOptions dopt;
    dopt.base = dedupe;
    dopt.workers = workers;
    // Liveness off, as in the undeduped dist rows above.
    dopt.heartbeat_interval_ms = 0;
    const auto d =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    row("dist-dedupe-workers-" + std::to_string(workers), d, workers,
        Mode::kDedupe);
    if (d.result.exhausted && serial_dedupe.result.exhausted) {
      ok = ok && d.result.states_seen <= serial_dedupe.result.states_seen;
    }
  }

  return ok;
}

// Crash-branching exploration of the registered crash worlds: how fast the
// crash-closed tree grows with the crash budget, and that the wait-freedom
// verdict (clean real object, flagged mutant) carries over to the parallel
// explorer at every thread count.
bool run_crash_instance(const std::string& world, bool expect_violation) {
  const std::string spec = world + ":2,2,10";
  const auto make = check::make_world_factory(spec);

  std::printf("\n  crash instance %s\n", spec.c_str());
  std::printf("  %-16s %10s %9s %12s\n", "config", "execs", "sec",
              "execs/sec");

  bool ok = true;
  for (std::size_t crashes : {0u, 1u, 2u}) {
    ScheduleExploreOptions opt;
    opt.max_crashes = crashes;
    const auto serial = timed([&] { return explore_schedules(make, opt); });
    check::ParallelExploreOptions popt;
    popt.base = opt;
    popt.threads = 4;
    const auto par =
        timed([&] { return check::parallel_explore_schedules(make, popt); });
    ok = ok && same(serial.result, par.result);
    // A clean world stays clean with crashes allowed; a flagged world must
    // be flagged already crash-free (interference alone starves the mutant)
    // and stay flagged under every crash budget.
    ok = ok && serial.result.violation.has_value() == expect_violation;
    auto row = [&](const std::string& config, const Measured& m,
                   std::size_t threads) {
      const double rate = m.result.executions / std::max(m.seconds, 1e-9);
      std::printf("  %-16s %10zu %9.3f %12.0f\n", config.c_str(),
                  m.result.executions, m.seconds, rate);
      benchutil::json_line("BENCH_modelcheck.json", "modelcheck-crash",
                           {{"world", world},
                            {"config", config},
                            {"threads", threads},
                            {"max_crashes", crashes},
                            {"executions", m.result.executions},
                            {"exhausted", m.result.exhausted},
                            {"violation", m.result.violation.has_value()},
                            {"jobs", m.result.jobs},
                            {"steals", m.result.steals},
                            {"seconds", m.seconds},
                            {"execs_per_sec", rate},
                            {"result_digest", result_digest(m.result)}});
    };
    // Crash entries cross the wire with the top bit re-encoded; the
    // distributed run must reproduce the crash-closed tree bit-for-bit.
    dist::DistExploreOptions dopt;
    dopt.base = opt;
    dopt.workers = 2;
    const auto dist_run =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    ok = ok && same(dist_run.result, serial.result);
    row("serial-c" + std::to_string(crashes), serial, 1);
    row("parallel-c" + std::to_string(crashes), par, 4);
    row("dist-workers-2-c" + std::to_string(crashes), dist_run, 2);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments select instances by name; none selects all.
  const std::vector<std::string> filter(argv + 1, argv + argc);
  auto wanted = [&](const std::string& name) {
    return filter.empty() ||
           std::find(filter.begin(), filter.end(), name) != filter.end();
  };

  benchutil::header(
      "E13: model-checker throughput (fast path + work-stealing parallel)",
      "identical results across trace mode and thread count; fast mode "
      "and parallelism only change wall-clock");
  std::printf("\n  hardware threads: %u\n",
              std::thread::hardware_concurrency());

  bool ok = true;
  if (wanted("register-script-554")) {
    ok &= run_instance(
        "register-script-554",
        [] {
          return std::make_unique<ScriptWorld>(
              std::vector<std::size_t>{5, 5, 4});
        },
        500'000);
  }
  if (wanted("collect-writers-443")) {
    ok &= run_instance(
        "collect-writers-443",
        [] {
          return std::make_unique<CollectWorld>(
              std::vector<std::size_t>{4, 4, 3});
        },
        500'000);
  }
  if (wanted("augmented-3proc")) {
    ok &= run_instance("augmented-3proc",
                       check::make_world_factory("aug-script:2,u0,w,ss"),
                       30'000);
  }
  if (wanted("aug-bu")) {
    ok &= run_crash_instance("aug-bu", /*expect_violation=*/false);
  }
  if (wanted("aug-mutant")) {
    ok &= run_crash_instance("aug-mutant", /*expect_violation=*/true);
  }

  benchutil::verdict(ok,
                     "undeduped configurations bit-identical; dedupe "
                     "configurations verdict-preserving");
  return ok ? 0 : 1;
}
