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
//     mixed script with full linearization verdicts, capped at 30,000
//     executions: the realistic verdict-heavy workload.
//
// Each instance additionally runs with dedupe_states on (serial and
// parallel): transposition pruning must preserve the violation verdict
// while executions shrink to the number of distinct subtrees - a
// combinatorial reduction on the script/collect worlds, and honestly ~1x on
// the augmented world, whose operation log (global step indices) makes
// states essentially unique.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/crash_worlds.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/dist/coordinator.h"
#include "src/memory/collect_snapshot.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"

namespace {

using namespace revisim;
using aug::AugmentedSnapshot;
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
// process always runnable, multinomial leaf count) while giving every step
// a precise single-cell footprint, so this instance also measures what
// partial-order reduction earns on disjoint-access traffic - the workload
// class POR exists for.
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

Task<void> bu_script(AugmentedSnapshot& m, ProcessId me, std::size_t j,
                     Val v) {
  std::vector<std::size_t> comps{j};
  std::vector<Val> vals{v};
  co_await m.BlockUpdate(me, comps, vals);
}

Task<void> wide_bu_script(AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> comps{0, 1};
  std::vector<Val> vals{Val(10 * (me + 1)), Val(10 * (me + 1) + 1)};
  co_await m.BlockUpdate(me, comps, vals);
}

Task<void> scan_script(AugmentedSnapshot& m, ProcessId me) {
  co_await m.Scan(me);
  co_await m.Scan(me);
}

// Augmented snapshot under three mixed processes with linearizer verdicts.
class AugWorld final : public ExplorableWorld {
 public:
  AugWorld() {
    m_ = std::make_unique<AugmentedSnapshot>(sched_, "M", 2, 3);
    sched_.spawn(bu_script(*m_, 0, 0, 1), "q1");
    sched_.spawn(wide_bu_script(*m_, 1), "q2");
    sched_.spawn(scan_script(*m_, 2), "q3");
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override {
    auto lin = aug::linearize(m_->log(), 2);
    if (!lin.ok()) {
      return lin.violations.front();
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  std::unique_ptr<AugmentedSnapshot> m_;
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
  const auto serial_fast = timed([&] { return explore_schedules(make, fast); });

  bool ok = true;
  // What each configuration owes the undeduped baseline:
  //   kExact  - bit-identical (executions, exhausted, violation, witness);
  //   kPor    - same verdict, same lex-smallest witness, same exhausted
  //             flag; executions may only shrink (skipped schedules are
  //             step-swap-equivalent to explored ones);
  //   kDedupe - violation-found / violation-free parity only (the table
  //             legitimately reroutes witnesses and collapses counts).
  enum class Mode { kExact, kPor, kDedupe };
  auto row = [&](const std::string& config, const Measured& m,
                 std::size_t threads, Mode mode, bool por, bool dedupe) {
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
    const bool por_parity = m.result.violation == baseline.result.violation &&
                            m.result.witness == baseline.result.witness &&
                            m.result.exhausted == baseline.result.exhausted &&
                            m.result.executions <= baseline.result.executions;
    switch (mode) {
      case Mode::kExact: ok = ok && identical; break;
      case Mode::kPor: ok = ok && por_parity; break;
      case Mode::kDedupe: ok = ok && parity; break;
    }
    benchutil::json_line(
        "BENCH_modelcheck.json", "modelcheck-scaling",
        {{"instance", name},
         {"config", config},
         {"threads", threads},
         {"dedupe", dedupe},
         {"por", por},
         {"executions", m.result.executions},
         {"exhausted", m.result.exhausted},
         {"states_seen", m.result.states_seen},
         {"subtrees_pruned", m.result.subtrees_pruned},
         {"jobs", m.result.jobs},
         {"steals", m.result.steals},
         {"por_skipped", m.result.por_skipped},
         {"dependent_wakeups", m.result.dependent_wakeups},
         {"footprint_bytes",
          static_cast<std::size_t>(m.result.footprint_bytes)},
         {"dedupe_disabled_adaptively", m.result.dedupe_disabled_adaptively},
         {"reduction_vs_undeduped", reduction},
         {"seconds", m.seconds},
         {"execs_per_sec", rate},
         {"speedup_vs_traced", speedup},
         {"verdict_parity", parity},
         {"witness_parity", por_parity},
         {"identical_to_baseline", identical}});
  };
  row("serial-traced", baseline, 1, Mode::kExact, false, false);
  row("serial-fast", serial_fast, 1, Mode::kExact, false, false);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    check::ParallelExploreOptions popt;
    popt.base = fast;
    popt.threads = threads;
    const auto par =
        timed([&] { return check::parallel_explore_schedules(make, popt); });
    row("parallel-" + std::to_string(threads), par, threads, Mode::kExact,
        false, false);
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
    row("dist-workers-" + std::to_string(workers), d, workers, Mode::kExact,
        false, false);
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
    row("dist-workers-2-heartbeat", d, 2, Mode::kExact, false, false);
  }

  // Transposition pruning on: executions legitimately shrink to the number
  // of distinct subtrees.
  ScheduleExploreOptions dedupe = fast;
  dedupe.dedupe_states = true;
  const auto serial_dedupe =
      timed([&] { return explore_schedules(make, dedupe); });
  row("serial-dedupe", serial_dedupe, 1, Mode::kDedupe, false, true);
  for (std::size_t threads : {2u, 4u}) {
    check::ParallelExploreOptions popt;
    popt.base = dedupe;
    popt.threads = threads;
    const auto par =
        timed([&] { return check::parallel_explore_schedules(make, popt); });
    row("parallel-dedupe-" + std::to_string(threads), par, threads,
        Mode::kDedupe, false, true);
  }

  // Dedupe over the wire: the coordinator owns the sharded fingerprint
  // table and every claim crosses the socket.  Mode::kDedupe covers the
  // verdict; the explicit bound below pins the dedupe contract (the
  // coordinator can only claim states the serial table also saw), and
  // scaling_smoke.py gate 7 holds dist-dedupe-workers-2 to 1.3x
  // parallel-dedupe-2 wall clock so a fingerprint service that stalls the
  // walk on every distinct state fails CI.
  for (std::size_t workers : {1u, 2u, 4u}) {
    dist::DistExploreOptions dopt;
    dopt.base = dedupe;
    dopt.workers = workers;
    // Liveness off, as in the undeduped dist rows above.
    dopt.heartbeat_interval_ms = 0;
    const auto d =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    row("dist-dedupe-workers-" + std::to_string(workers), d, workers,
        Mode::kDedupe, false, true);
    ok = ok && d.result.states_seen <= serial_dedupe.result.states_seen;
  }

  // Partial-order reduction: executions shrink to one representative per
  // Mazurkiewicz trace while verdict + lex-smallest witness carry over
  // exactly - serially and at every thread count.
  ScheduleExploreOptions por = fast;
  por.por = true;
  const auto serial_por = timed([&] { return explore_schedules(make, por); });
  row("serial-por", serial_por, 1, Mode::kPor, true, false);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    check::ParallelExploreOptions popt;
    popt.base = por;
    popt.threads = threads;
    const auto par =
        timed([&] { return check::parallel_explore_schedules(make, popt); });
    row("por-parallel-" + std::to_string(threads), par, threads, Mode::kPor,
        true, false);
  }

  // POR and the transposition table compose (sleep sets are folded into the
  // fingerprint); adaptive dedupe turns the table off mid-run when a lookup
  // window earns nothing.
  ScheduleExploreOptions por_dedupe = por;
  por_dedupe.dedupe_states = true;
  const auto serial_por_dedupe =
      timed([&] { return explore_schedules(make, por_dedupe); });
  row("serial-por-dedupe", serial_por_dedupe, 1, Mode::kDedupe, true, true);

  ScheduleExploreOptions adaptive = dedupe;
  adaptive.dedupe_adaptive = true;
  const auto serial_adaptive =
      timed([&] { return explore_schedules(make, adaptive); });
  row("serial-dedupe-adaptive", serial_adaptive, 1, Mode::kDedupe, false,
      true);
  return ok;
}

// Crash-branching exploration of the registered crash worlds: how fast the
// crash-closed tree grows with the crash budget, and that the wait-freedom
// verdict (clean real object, flagged mutant) carries over to the parallel
// explorer at every thread count.
bool run_crash_instance(const std::string& world, bool expect_violation) {
  check::CrashWorldSpec spec;
  spec.world = world;
  const auto make = check::make_crash_world_factory(spec);

  std::printf("\n  crash instance %s (f=%zu m=%zu budget=%zu)\n",
              world.c_str(), spec.f, spec.m, spec.step_budget);
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
    // POR under crash branching.  The augmented crash worlds declare opaque
    // footprints throughout (their continuations append to the shared
    // operation log), so POR must cost nothing and change nothing: the
    // reduced tree is bit-identical to the unreduced one, serially and in
    // parallel.
    ScheduleExploreOptions por_opt = opt;
    por_opt.por = true;
    const auto serial_por =
        timed([&] { return explore_schedules(make, por_opt); });
    check::ParallelExploreOptions por_popt;
    por_popt.base = por_opt;
    por_popt.threads = 4;
    const auto par_por = timed(
        [&] { return check::parallel_explore_schedules(make, por_popt); });
    ok = ok && same(serial_por.result, serial.result);
    ok = ok && same(par_por.result, serial.result);
    auto row = [&](const std::string& config, const Measured& m,
                   std::size_t threads, bool por) {
      const double rate = m.result.executions / std::max(m.seconds, 1e-9);
      std::printf("  %-16s %10zu %9.3f %12.0f\n", config.c_str(),
                  m.result.executions, m.seconds, rate);
      benchutil::json_line("BENCH_modelcheck.json", "modelcheck-crash",
                           {{"world", world},
                            {"config", config},
                            {"threads", threads},
                            {"max_crashes", crashes},
                            {"por", por},
                            {"executions", m.result.executions},
                            {"exhausted", m.result.exhausted},
                            {"violation", m.result.violation.has_value()},
                            {"jobs", m.result.jobs},
                            {"steals", m.result.steals},
                            {"seconds", m.seconds},
                            {"execs_per_sec", rate}});
    };
    // Crash entries cross the wire with the top bit re-encoded; the
    // distributed run must reproduce the crash-closed tree bit-for-bit.
    dist::DistExploreOptions dopt;
    dopt.base = opt;
    dopt.workers = 2;
    const auto dist_run =
        timed([&] { return dist::dist_explore_schedules(make, dopt); });
    ok = ok && same(dist_run.result, serial.result);
    row("serial-c" + std::to_string(crashes), serial, 1, false);
    row("parallel-c" + std::to_string(crashes), par, 4, false);
    row("dist-workers-2-c" + std::to_string(crashes), dist_run, 2, false);
    row("serial-por-c" + std::to_string(crashes), serial_por, 1, true);
    row("parallel-por-c" + std::to_string(crashes), par_por, 4, true);
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
    ok &= run_instance(
        "augmented-3proc", [] { return std::make_unique<AugWorld>(); },
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
