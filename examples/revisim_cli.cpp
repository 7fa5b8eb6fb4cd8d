// Command-line driver: run any configuration of the revisionist simulation
// and print the run report, or work with crash-exploration witnesses.
//
// Usage:
//   revisim_cli [--protocol racing|approx] [--n N] [--m M] [--f F] [--d D]
//               [--eps E] [--seed S] [--seeds COUNT] [--burst]
//               [--substrate atomic|registers] [--task consensus|kset:K|approx]
//               [--trace]
//   revisim_cli explore [--world SPEC] [--max-crashes C] [--max-steps S]
//               [--max-executions E] [--dedupe] [--witness PATH]
//   revisim_cli replay <witness-file>
//   revisim_cli serve [--host H] [--port P]
//   revisim_cli dist-explore [--workers N | --connect H:P ...]
//               [--world SPEC]
//               [--max-crashes C] [--max-steps S] [--max-executions E]
//               [--dedupe] [--retries R] [--witness PATH]
//               [--journal PATH | --resume PATH] [--heartbeat-ms MS]
//               [--heartbeat-timeout-ms MS] [--reconnect-ms MS]
//               [--fault SPEC] [--coord-fault SPEC] [--halt-after-jobs N]
//
// SPEC names a registry world as `name:params` (src/check/worlds.h has the
// grammar): aug-bu:f,m,budget, aug-mutant:f,m,budget,
// sim-racing:n,k,x,m[,atomic|registers] or aug-script:m,ops,ops,...  The
// default is aug-bu:2,2,10.  sim-racing refuses --dedupe.
//
// Examples:
//   revisim_cli --protocol racing --n 4 --m 2 --f 2 --seeds 50
//       hunt for consensus violations of the starved racing protocol
//   revisim_cli --protocol approx --n 4 --m 2 --eps 1e-4 --substrate registers
//       run the epsilon-agreement reduction on plain registers
//   revisim_cli explore --world aug-mutant:2,2,10 --witness w.txt
//       crash-closed wait-freedom check of the mutant; writes the witness
//   revisim_cli explore --world sim-racing:4,3,0,1 --max-crashes 0
//       every schedule of the paper's reduction: 4 covering simulators,
//       each execution checked by the Lemma-26 validator
//   revisim_cli replay w.txt
//       deterministically reproduce a recorded verdict (exit 0 iff it
//       matches)
//   revisim_cli dist-explore --workers 4 --world aug-mutant:2,2,10
//       the same exploration fanned out over 4 forked worker processes;
//       executions/verdict/witness are bit-identical to `explore`
//   revisim_cli serve --port 7421
//       long-running worker for cluster mode; a dist-explore elsewhere
//       connects with --connect host:7421
//   revisim_cli dist-explore --workers 4 --world aug-bu:2,2,6 --journal run.j
//       journal the run; if it is interrupted, re-running the SAME command
//       with --resume run.j instead of --journal reuses every finished
//       region and completes with a bit-identical summary
//   revisim_cli dist-explore --world aug-bu:2,2,6 --retries 8
//               --fault drop=.02,seed=7
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
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/bounds/bounds.h"
#include "src/check/model_check.h"
#include "src/check/witness.h"
#include "src/check/worlds.h"
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

// The world `explore` and `dist-explore` use without --world.
constexpr const char* kDefaultWorld = "aug-bu:2,2,10";

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
// world registry, replay the recorded schedule (steps and crashes)
// and compare the re-derived verdict with the recorded one.  Exit 0 iff
// they match, 1 on mismatch, 2 on a malformed witness.
int run_replay(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s replay <witness-file>\n", argv[0]);
    return 2;
  }
  try {
    const check::Witness w = check::load_witness_file(argv[2]);
    std::printf("witness: world %s | %zu entries\n", w.world.c_str(),
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

// The registry factory for `world`.  With dedupe on, one fresh world is
// fingerprinted first, so a world that cannot be deduped (sim-racing)
// refuses before any exploration starts.  Throws std::invalid_argument.
std::function<std::unique_ptr<check::ExplorableWorld>()> world_factory(
    const std::string& world, bool dedupe) {
  auto factory = check::make_world_factory(world);
  if (dedupe) {
    (void)factory()->fingerprint();
  }
  return factory;
}

// Prints the violation and its replayable witness, to `path` or to stdout.
// Returns the violation exit code, 1.
int report_violation(const std::string& world,
                     const check::ScheduleExploreOptions& opt,
                     const check::ScheduleExploreResult& res,
                     const std::string& path) {
  std::printf("violation: %s\n", res.violation->c_str());
  check::Witness w;
  w.world = world;
  w.max_steps = opt.max_steps;
  w.max_crashes = opt.max_crashes;
  w.verdict = *res.violation;
  w.schedule = res.witness;
  if (!path.empty()) {
    check::write_witness_file(w, path);
    std::printf("witness written to %s\n", path.c_str());
  } else {
    std::printf("%s", check::to_text(w).c_str());
  }
  return 1;
}

// With --dedupe: the state table's line, and a warning line once it
// saturated (dedupe then went partial, so the walk did more work than it
// needed to, never less).
void print_dedupe(const check::ScheduleExploreOptions& opt,
                  const check::ScheduleExploreResult& res) {
  if (!opt.dedupe_states) {
    return;
  }
  std::printf("%zu states, %zu subtrees pruned\n", res.states_seen,
              res.subtrees_pruned);
  if (res.table_saturated) {
    std::printf("state table saturated: later states were walked without "
                "being recorded\n");
  }
}

// The value of the flag at argv[i], advancing `i` past it; a missing value
// exits 2.
const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

// Parses argv[i] if it is one of the flags `explore` and `dist-explore`
// share (--world, --max-crashes, --max-steps, --max-executions, --dedupe,
// --witness), advancing `i` past its value.  False for any other flag.
bool parse_walk_flag(int argc, char** argv, int& i, std::string& world,
                     check::ScheduleExploreOptions& opt,
                     std::string& witness_path) {
  const char* flag = argv[i];
  if (!std::strcmp(flag, "--world")) {
    world = flag_value(argc, argv, i);
  } else if (!std::strcmp(flag, "--max-crashes")) {
    parse_number(flag, flag_value(argc, argv, i), opt.max_crashes);
  } else if (!std::strcmp(flag, "--max-steps")) {
    parse_number(flag, flag_value(argc, argv, i), opt.max_steps);
  } else if (!std::strcmp(flag, "--max-executions")) {
    parse_number(flag, flag_value(argc, argv, i), opt.max_executions);
  } else if (!std::strcmp(flag, "--dedupe")) {
    opt.dedupe_states = true;
  } else if (!std::strcmp(flag, "--witness")) {
    witness_path = flag_value(argc, argv, i);
  } else {
    return false;
  }
  return true;
}

// `revisim_cli explore ...`: crash-closed exhaustive exploration of a
// registry world; writes a replayable witness when a violation is found.
// Exit 0 when no violation exists, 1 on a violation, 2 on bad arguments.
int run_explore(int argc, char** argv) {
  std::string world = kDefaultWorld;
  check::ScheduleExploreOptions opt;
  opt.max_crashes = 2;
  std::string witness_path;
  for (int i = 2; i < argc; ++i) {
    if (!parse_walk_flag(argc, argv, i, world, opt, witness_path)) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  try {
    auto factory = world_factory(world, opt.dedupe_states);
    auto res = check::explore_schedules(factory, opt);
    std::printf("world %s | max_crashes=%zu max_steps=%zu\n", world.c_str(),
                opt.max_crashes, opt.max_steps);
    std::printf("%zu executions, %s\n", res.executions,
                res.exhausted ? "exhausted" : "truncated at cap");
    print_dedupe(opt, res);
    if (!res.violation) {
      std::printf("no violation\n");
      return 0;
    }
    return report_violation(world, opt, res, witness_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore failed: %s\n", e.what());
    return 2;
  }
}

// `revisim_cli serve`: long-running cluster-mode worker.  Listens on
// host:port and serves one coordinator connection at a time; worlds come
// from the world registry, named by the coordinator's hello.
int run_serve(int argc, char** argv) {
  std::string host = "0.0.0.0";
  std::uint16_t port = 7421;
  for (int i = 2; i < argc; ++i) {
    auto next = [&] { return flag_value(argc, argv, i); };
    if (!std::strcmp(argv[i], "--host")) {
      host = next();
    } else if (!std::strcmp(argv[i], "--port")) {
      parse_number("--port", next(), port);
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
  std::string world = kDefaultWorld;
  dist::DistExploreOptions opt;
  opt.base.max_crashes = 2;
  std::string witness_path;
  std::vector<std::string> endpoints;
  // Fork-mode flags given, refused with --connect: cluster workers are not
  // forked, so these would be silently ignored.
  std::vector<const char*> fork_only;
  for (int i = 2; i < argc; ++i) {
    auto next = [&] { return flag_value(argc, argv, i); };
    if (parse_walk_flag(argc, argv, i, world, opt.base, witness_path)) {
      continue;
    }
    if (!std::strcmp(argv[i], "--workers")) {
      parse_number("--workers", next(), opt.workers);
      fork_only.push_back("--workers");
    } else if (!std::strcmp(argv[i], "--connect")) {
      endpoints.push_back(next());
    } else if (!std::strcmp(argv[i], "--retries")) {
      parse_number("--retries", next(), opt.job_retries);
    } else if (!std::strcmp(argv[i], "--journal")) {
      opt.journal_path = next();
    } else if (!std::strcmp(argv[i], "--resume")) {
      opt.journal_path = next();
      opt.resume = true;
    } else if (!std::strcmp(argv[i], "--heartbeat-ms")) {
      parse_number("--heartbeat-ms", next(), opt.heartbeat_interval_ms);
    } else if (!std::strcmp(argv[i], "--heartbeat-timeout-ms")) {
      parse_number("--heartbeat-timeout-ms", next(), opt.heartbeat_timeout_ms);
    } else if (!std::strcmp(argv[i], "--reconnect-ms")) {
      parse_number("--reconnect-ms", next(), opt.reconnect_window_ms);
    } else if (!std::strcmp(argv[i], "--halt-after-jobs")) {
      parse_number("--halt-after-jobs", next(), opt.halt_after_jobs);
    } else if (!std::strcmp(argv[i], "--fault")) {
      try {
        opt.worker_faults = dist::parse_fault_plan(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --fault spec: %s\n", e.what());
        return 2;
      }
      fork_only.push_back("--fault");
    } else if (!std::strcmp(argv[i], "--coord-fault")) {
      try {
        opt.coordinator_faults = dist::parse_fault_plan(next());
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
  // recorded for a different world spec even before comparing the
  // exploration options.
  opt.journal_tag = world;
  try {
    auto factory = world_factory(world, opt.base.dedupe_states);
    check::ScheduleExploreResult res =
        endpoints.empty()
            ? dist::dist_explore_schedules(factory, opt)
            : dist::dist_explore_remote(world, endpoints, opt);
    std::printf("world %s | max_crashes=%zu max_steps=%zu | %zu worker(s)\n",
                world.c_str(), opt.base.max_crashes, opt.base.max_steps,
                endpoints.empty() ? opt.workers : endpoints.size());
    std::printf("%zu executions across %zu jobs (%zu steals), %s\n",
                res.executions, res.jobs, res.steals,
                res.exhausted ? "exhausted" : "truncated at cap");
    print_dedupe(opt.base, res);
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
    return report_violation(world, opt.base, res, witness_path);
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
