// Command-line driver: run any configuration of the revisionist simulation
// and print the run report, or work with crash-exploration witnesses.
//
// Usage:
//   revisim_cli [--protocol racing|approx] [--n N] [--m M] [--f F] [--d D]
//               [--eps E] [--seed S] [--seeds COUNT] [--burst]
//               [--substrate atomic|registers] [--task consensus|kset:K|approx]
//               [--trace]
//   revisim_cli explore [--world aug-bu|aug-mutant] [--f F] [--m M]
//               [--budget B] [--max-crashes C] [--max-steps S]
//               [--max-executions E] [--witness PATH]
//   revisim_cli replay <witness-file>
//   revisim_cli serve [--host H] [--port P]
//   revisim_cli dist-explore [--workers N | --connect H:P ...] [--world W]
//               [--f F] [--m M] [--budget B] [--max-crashes C]
//               [--max-steps S] [--max-executions E] [--por] [--dedupe]
//               [--retries R] [--witness PATH]
//               [--journal PATH | --resume PATH] [--heartbeat-ms MS]
//               [--heartbeat-timeout-ms MS] [--reconnect-ms MS]
//               [--fault SPEC] [--coord-fault SPEC] [--halt-after-jobs N]
//
// Examples:
//   revisim_cli --protocol racing --n 4 --m 2 --f 2 --seeds 50
//       hunt for consensus violations of the starved racing protocol
//   revisim_cli --protocol approx --n 4 --m 2 --eps 1e-4 --substrate registers
//       run the epsilon-agreement reduction on plain registers
//   revisim_cli explore --world aug-mutant --max-crashes 2 --witness w.txt
//       crash-closed wait-freedom check of the mutant; writes the witness
//   revisim_cli replay w.txt
//       deterministically reproduce a recorded verdict (exit 0 iff it
//       matches)
//   revisim_cli dist-explore --workers 4 --world aug-mutant --max-crashes 2
//       the same exploration fanned out over 4 forked worker processes;
//       executions/verdict/witness are bit-identical to `explore`
//   revisim_cli serve --port 7421
//       long-running worker for cluster mode; a dist-explore elsewhere
//       connects with --connect host:7421
//   revisim_cli dist-explore --workers 4 --world aug-mutant --journal run.j
//       journal the run; if it is interrupted, re-running the SAME command
//       with --resume run.j instead of --journal reuses every finished
//       region and completes with a bit-identical summary
//   revisim_cli dist-explore --world aug-bu --retries 8 --fault drop=.02,seed=7
//       deterministic fault drill: each worker's outbound frames drop with
//       P=.02; seq-gap detection cuts, the coordinator re-dials, jobs
//       re-queue, and the summary still matches the fault-free run
//       (forked workers only: a `serve` worker takes REVISIM_FAULT_PLAN)
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/bounds/bounds.h"
#include "src/check/crash_worlds.h"
#include "src/check/model_check.h"
#include "src/check/witness.h"
#include "src/dist/coordinator.h"
#include "src/dist/worker.h"
#include "src/protocols/approx_agreement.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/sim/driver.h"
#include "src/sim/summary.h"
#include "src/tasks/task_spec.h"

using namespace revisim;

namespace {

struct Args {
  std::string protocol = "racing";
  std::size_t n = 4;
  std::size_t m = 2;
  std::size_t f = 2;
  std::size_t d = 0;
  double eps = 1e-3;
  std::uint64_t seed = 0;
  std::size_t seeds = 1;
  bool burst = false;
  bool trace = false;
  std::string substrate = "atomic";
  std::string task = "consensus";
};

// Parses the value of a numeric flag into `out`: an unsigned integer in
// decimal, or (for a double target) a finite number.  Empty input, signs,
// other non-digits, trailing characters, overflow and values out of the
// target type's range all exit 2 with a message naming the flag.
template <typename T>
void parse_number(const char* flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(stderr, "bad value for %s: '%s' (want a finite number)\n",
                   flag, text);
    } else {
      std::fprintf(stderr,
                   "bad value for %s: '%s' (want an integer in [0, %llu])\n",
                   flag, text,
                   static_cast<unsigned long long>(
                       std::numeric_limits<T>::max()));
    }
    std::exit(2);
  }
  out = value;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--protocol racing|approx] [--n N] [--m M] [--f F] "
               "[--d D] [--eps E] [--seed S] [--seeds COUNT] [--burst] "
               "[--substrate atomic|registers] [--task consensus|kset:K|"
               "approx] [--trace]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--protocol")) {
      a.protocol = next("--protocol");
    } else if (!std::strcmp(argv[i], "--n")) {
      parse_number("--n", next("--n"), a.n);
    } else if (!std::strcmp(argv[i], "--m")) {
      parse_number("--m", next("--m"), a.m);
    } else if (!std::strcmp(argv[i], "--f")) {
      parse_number("--f", next("--f"), a.f);
    } else if (!std::strcmp(argv[i], "--d")) {
      parse_number("--d", next("--d"), a.d);
    } else if (!std::strcmp(argv[i], "--eps")) {
      parse_number("--eps", next("--eps"), a.eps);
    } else if (!std::strcmp(argv[i], "--seed")) {
      parse_number("--seed", next("--seed"), a.seed);
    } else if (!std::strcmp(argv[i], "--seeds")) {
      parse_number("--seeds", next("--seeds"), a.seeds);
    } else if (!std::strcmp(argv[i], "--burst")) {
      a.burst = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = true;
    } else if (!std::strcmp(argv[i], "--substrate")) {
      a.substrate = next("--substrate");
    } else if (!std::strcmp(argv[i], "--task")) {
      a.task = next("--task");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  return a;
}

std::unique_ptr<proto::Protocol> make_protocol(const Args& a) {
  if (a.protocol == "racing") {
    return std::make_unique<proto::RacingAgreement>(a.n, a.m);
  }
  if (a.protocol == "approx") {
    return std::make_unique<proto::ApproxAgreement>(a.n, a.m, a.eps);
  }
  std::fprintf(stderr, "unknown protocol %s\n", a.protocol.c_str());
  std::exit(2);
}

std::unique_ptr<tasks::ColorlessTask> make_task(const Args& a) {
  if (a.task == "consensus") {
    return std::make_unique<tasks::KSetAgreement>(1);
  }
  if (a.task.rfind("kset:", 0) == 0) {
    std::size_t k = 0;
    parse_number("--task kset:K", a.task.c_str() + 5, k);
    return std::make_unique<tasks::KSetAgreement>(k);
  }
  if (a.task == "approx") {
    return std::make_unique<tasks::ApproxAgreementTask>(a.eps);
  }
  std::fprintf(stderr, "unknown task %s\n", a.task.c_str());
  std::exit(2);
}

// `revisim_cli replay <witness-file>`: rebuild the witnessed world from the
// crash-world registry, replay the recorded schedule (steps and crashes)
// and compare the re-derived verdict with the recorded one.  Exit 0 iff
// they match, 1 on mismatch, 2 on a malformed witness.
int run_replay(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s replay <witness-file>\n", argv[0]);
    return 2;
  }
  try {
    const check::Witness w = check::load_witness_file(argv[2]);
    std::printf("witness: world %s f=%zu m=%zu budget=%zu | %zu entries\n",
                w.spec.world.c_str(), w.spec.f, w.spec.m, w.spec.step_budget,
                w.schedule.size());
    const check::ReplayResult r = check::replay_witness(w);
    std::printf("recorded verdict: %s\n",
                w.verdict.empty() ? "(accepted)" : w.verdict.c_str());
    std::printf("replayed verdict: %s\n",
                r.verdict ? r.verdict->c_str() : "(accepted)");
    std::printf("replayed %zu steps + %zu crashes: %s\n", r.steps, r.crashes,
                r.matches ? "verdict reproduced" : "VERDICT MISMATCH");
    return r.matches ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay failed: %s\n", e.what());
    return 2;
  }
}

// `revisim_cli explore ...`: crash-closed exhaustive exploration of a
// registry world; writes a replayable witness when a violation is found.
// Exit 0 when no violation exists, 1 on a violation, 2 on bad arguments.
int run_explore(int argc, char** argv) {
  check::CrashWorldSpec spec;
  check::ScheduleExploreOptions opt;
  opt.max_crashes = 2;
  std::string witness_path;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--world")) {
      spec.world = next("--world");
    } else if (!std::strcmp(argv[i], "--f")) {
      parse_number("--f", next("--f"), spec.f);
    } else if (!std::strcmp(argv[i], "--m")) {
      parse_number("--m", next("--m"), spec.m);
    } else if (!std::strcmp(argv[i], "--budget")) {
      parse_number("--budget", next("--budget"), spec.step_budget);
    } else if (!std::strcmp(argv[i], "--max-crashes")) {
      parse_number("--max-crashes", next("--max-crashes"), opt.max_crashes);
    } else if (!std::strcmp(argv[i], "--max-steps")) {
      parse_number("--max-steps", next("--max-steps"), opt.max_steps);
    } else if (!std::strcmp(argv[i], "--max-executions")) {
      parse_number("--max-executions", next("--max-executions"),
                   opt.max_executions);
    } else if (!std::strcmp(argv[i], "--por")) {
      opt.por = true;
    } else if (!std::strcmp(argv[i], "--dedupe")) {
      opt.dedupe_states = true;
    } else if (!std::strcmp(argv[i], "--witness")) {
      witness_path = next("--witness");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  try {
    auto factory = check::make_crash_world_factory(spec);
    auto res = check::explore_schedules(factory, opt);
    std::printf("world %s f=%zu m=%zu budget=%zu | max_crashes=%zu "
                "max_steps=%zu\n",
                spec.world.c_str(), spec.f, spec.m, spec.step_budget,
                opt.max_crashes, opt.max_steps);
    std::printf("%zu executions, %s\n", res.executions,
                res.exhausted ? "exhausted" : "truncated at cap");
    if (!res.violation) {
      std::printf("no violation\n");
      return 0;
    }
    std::printf("violation: %s\n", res.violation->c_str());
    check::Witness w;
    w.spec = spec;
    w.max_steps = opt.max_steps;
    w.max_crashes = opt.max_crashes;
    w.por = opt.por;
    w.verdict = *res.violation;
    w.schedule = res.witness;
    if (!witness_path.empty()) {
      check::write_witness_file(w, witness_path);
      std::printf("witness written to %s\n", witness_path.c_str());
    } else {
      std::printf("%s", check::to_text(w).c_str());
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore failed: %s\n", e.what());
    return 2;
  }
}

// `revisim_cli serve`: long-running cluster-mode worker.  Listens on
// host:port and serves one coordinator connection at a time; worlds come
// from the crash-world registry, named by the coordinator's hello.
int run_serve(int argc, char** argv) {
  std::string host = "0.0.0.0";
  std::uint16_t port = 7421;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) {
      host = next("--host");
    } else if (!std::strcmp(argv[i], "--port")) {
      parse_number("--port", next("--port"), port);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  std::printf("revisim worker serving on %s:%u\n", host.c_str(),
              static_cast<unsigned>(port));
  return dist::serve_forever(host, port);
}

// `revisim_cli dist-explore ...`: the `explore` subcommand fanned out over
// worker processes - forked locally with --workers N, or remote `serve`
// instances with repeated --connect host:port.  Exit codes match
// `explore`; the summary is bit-identical to the serial run when dedupe is
// off.
int run_dist_explore(int argc, char** argv) {
  check::CrashWorldSpec spec;
  dist::DistExploreOptions opt;
  opt.base.max_crashes = 2;
  std::string witness_path;
  std::vector<std::string> endpoints;
  // Fork-mode flags given, refused with --connect: cluster workers are not
  // forked, so these would be silently ignored.
  std::vector<const char*> fork_only;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--world")) {
      spec.world = next("--world");
    } else if (!std::strcmp(argv[i], "--f")) {
      parse_number("--f", next("--f"), spec.f);
    } else if (!std::strcmp(argv[i], "--m")) {
      parse_number("--m", next("--m"), spec.m);
    } else if (!std::strcmp(argv[i], "--budget")) {
      parse_number("--budget", next("--budget"), spec.step_budget);
    } else if (!std::strcmp(argv[i], "--max-crashes")) {
      parse_number("--max-crashes", next("--max-crashes"),
                   opt.base.max_crashes);
    } else if (!std::strcmp(argv[i], "--max-steps")) {
      parse_number("--max-steps", next("--max-steps"), opt.base.max_steps);
    } else if (!std::strcmp(argv[i], "--max-executions")) {
      parse_number("--max-executions", next("--max-executions"),
                   opt.base.max_executions);
    } else if (!std::strcmp(argv[i], "--por")) {
      opt.base.por = true;
    } else if (!std::strcmp(argv[i], "--dedupe")) {
      opt.base.dedupe_states = true;
    } else if (!std::strcmp(argv[i], "--workers")) {
      parse_number("--workers", next("--workers"), opt.workers);
      fork_only.push_back("--workers");
    } else if (!std::strcmp(argv[i], "--connect")) {
      endpoints.push_back(next("--connect"));
    } else if (!std::strcmp(argv[i], "--retries")) {
      parse_number("--retries", next("--retries"), opt.job_retries);
    } else if (!std::strcmp(argv[i], "--witness")) {
      witness_path = next("--witness");
    } else if (!std::strcmp(argv[i], "--journal")) {
      opt.journal_path = next("--journal");
    } else if (!std::strcmp(argv[i], "--resume")) {
      opt.journal_path = next("--resume");
      opt.resume = true;
    } else if (!std::strcmp(argv[i], "--heartbeat-ms")) {
      parse_number("--heartbeat-ms", next("--heartbeat-ms"),
                   opt.heartbeat_interval_ms);
    } else if (!std::strcmp(argv[i], "--heartbeat-timeout-ms")) {
      parse_number("--heartbeat-timeout-ms", next("--heartbeat-timeout-ms"),
                   opt.heartbeat_timeout_ms);
    } else if (!std::strcmp(argv[i], "--reconnect-ms")) {
      parse_number("--reconnect-ms", next("--reconnect-ms"),
                   opt.reconnect_window_ms);
    } else if (!std::strcmp(argv[i], "--halt-after-jobs")) {
      parse_number("--halt-after-jobs", next("--halt-after-jobs"),
                   opt.halt_after_jobs);
    } else if (!std::strcmp(argv[i], "--fault")) {
      try {
        opt.worker_faults = dist::parse_fault_plan(next("--fault"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --fault spec: %s\n", e.what());
        return 2;
      }
      fork_only.push_back("--fault");
    } else if (!std::strcmp(argv[i], "--coord-fault")) {
      try {
        opt.coordinator_faults = dist::parse_fault_plan(next("--coord-fault"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --coord-fault spec: %s\n", e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!endpoints.empty() && !fork_only.empty()) {
    const bool fault = !std::strcmp(fork_only.front(), "--fault");
    std::fprintf(stderr,
                 "%s applies to forked workers only and cannot be used with "
                 "--connect%s\n",
                 fork_only.front(),
                 fault ? " (serve workers take REVISIM_FAULT_PLAN)" : "");
    return 2;
  }
  // Pin the world identity in the journal config: resume refuses a journal
  // recorded for a different world/f/m/budget even before comparing the
  // exploration options.
  opt.journal_tag = spec.world + " f=" + std::to_string(spec.f) +
                    " m=" + std::to_string(spec.m) +
                    " budget=" + std::to_string(spec.step_budget);
  try {
    check::ScheduleExploreResult res;
    if (!endpoints.empty()) {
      res = dist::dist_explore_remote(spec, endpoints, opt);
    } else {
      auto factory = check::make_crash_world_factory(spec);
      res = dist::dist_explore_schedules(factory, opt);
    }
    std::printf("world %s f=%zu m=%zu budget=%zu | max_crashes=%zu "
                "max_steps=%zu | %zu worker(s)\n",
                spec.world.c_str(), spec.f, spec.m, spec.step_budget,
                opt.base.max_crashes, opt.base.max_steps,
                endpoints.empty() ? opt.workers : endpoints.size());
    std::printf("%zu executions across %zu jobs (%zu steals), %s\n",
                res.executions, res.jobs, res.steals,
                res.exhausted ? "exhausted" : "truncated at cap");
    if (res.error) {
      std::fprintf(stderr, "partial summary: %s\n", res.error->c_str());
      if (!opt.journal_path.empty()) {
        std::fprintf(stderr,
                     "run journal kept at %s; re-run with --resume %s to "
                     "pick up where this run stopped\n",
                     opt.journal_path.c_str(), opt.journal_path.c_str());
      }
      return 2;
    }
    if (!res.violation) {
      std::printf("no violation\n");
      return 0;
    }
    std::printf("violation: %s\n", res.violation->c_str());
    check::Witness w;
    w.spec = spec;
    w.max_steps = opt.base.max_steps;
    w.max_crashes = opt.base.max_crashes;
    w.por = opt.base.por;
    w.verdict = *res.violation;
    w.schedule = res.witness;
    if (!witness_path.empty()) {
      check::write_witness_file(w, witness_path);
      std::printf("witness written to %s\n", witness_path.c_str());
    } else {
      std::printf("%s", check::to_text(w).c_str());
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist-explore failed: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "replay")) {
    return run_replay(argc, argv);
  }
  if (argc > 1 && !std::strcmp(argv[1], "explore")) {
    return run_explore(argc, argv);
  }
  if (argc > 1 && !std::strcmp(argv[1], "serve")) {
    return run_serve(argc, argv);
  }
  if (argc > 1 && !std::strcmp(argv[1], "dist-explore")) {
    return run_dist_explore(argc, argv);
  }
  const Args args = parse(argc, argv);
  auto protocol = make_protocol(args);
  auto task = make_task(args);

  std::printf("protocol %s | task %s | f=%zu d=%zu | substrate %s\n",
              protocol->name().c_str(), task->name().c_str(), args.f, args.d,
              args.substrate.c_str());
  if (args.protocol == "racing" && args.task == "consensus" && args.d <= 1) {
    std::printf("paper bound (Corollary 33, x=max(d,1)): m >= %zu\n",
                bounds::kset_space_lower_bound(args.n, 1, 1));
  }

  std::size_t violations = 0;
  for (std::uint64_t s = args.seed; s < args.seed + args.seeds; ++s) {
    runtime::Scheduler sched;
    std::vector<Val> inputs;
    for (std::size_t i = 0; i < args.f; ++i) {
      inputs.push_back(args.protocol == "approx"
                           ? to_fixed(i % 2 ? 1.0 : 0.0)
                           : static_cast<Val>(10 * (i + 1)));
    }
    sim::SimulationDriver::Options opt;
    opt.d = args.d;
    opt.n = args.n;
    if (args.substrate == "registers") {
      opt.substrate = sim::SimulationDriver::Substrate::kRegisters;
    }
    sim::SimulationDriver driver(sched, *protocol, inputs, opt);
    std::unique_ptr<runtime::Adversary> adv;
    if (args.burst) {
      adv = std::make_unique<runtime::BurstAdversary>(s, 12);
    } else {
      adv = std::make_unique<runtime::RandomAdversary>(s);
    }
    if (!driver.run(*adv, 100'000'000)) {
      std::printf("seed %llu: step-limit cut\n",
                  static_cast<unsigned long long>(s));
      continue;
    }
    auto verdict = task->validate(driver.inputs(), driver.outputs());
    if (!verdict.ok) {
      ++violations;
    }
    if (args.seeds == 1 || !verdict.ok) {
      std::printf("\nseed %llu (%s):\n%s",
                  static_cast<unsigned long long>(s),
                  verdict.ok ? "task satisfied" : verdict.reason.c_str(),
                  sim::summarize(driver).c_str());
      if (args.trace) {
        std::printf("%s", sched.trace().to_text().c_str());
      }
    }
  }
  std::printf("\n%zu/%zu runs violated the task\n", violations, args.seeds);
  return 0;
}
