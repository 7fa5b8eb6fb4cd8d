// Crash-fault injection, progress watchdogs and replayable witnesses.
//
// Covers the crash model end to end: Scheduler::crash semantics (the poised
// operation dies unexecuted, crash-closure of executions), the
// CrashAdversary decorator, crash-branching exhaustive exploration, the
// Block-Update wait-freedom / Scan non-blocking distinction (§3.2) under
// crashes, simulation termination with crashed simulators, post-crash
// solo-termination probes in the protocol checker, and the witness files
// that make every flagged execution reproducible across binaries, with the
// world registry specs they name.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/mutant_snapshot.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/protocol_check.h"
#include "src/check/watchdog.h"
#include "src/check/witness.h"
#include "src/check/worlds.h"
#include "src/memory/register.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/sim/driver.h"
#include "src/solo/determinize.h"
#include "src/solo/nd_protocol.h"
#include "src/tasks/task_spec.h"
#include "src/util/fingerprint.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using aug::MutantAugmentedSnapshot;
using check::ExplorableWorld;
using check::explore_schedules;
using check::make_world_factory;
using check::ProgressMonitor;
using check::ScheduleExploreOptions;
using check::Witness;
using runtime::CrashAdversary;
using runtime::make_crash_entry;
using runtime::ProcessId;
using runtime::RoundRobinAdversary;
using runtime::Scheduler;
using runtime::ScriptedAdversary;
using runtime::StepKind;
using runtime::Task;

Task<void> write_once(mem::Register& r, Val v) { co_await r.write(v); }

Task<void> write_twice(mem::Register& r, Val a, Val b) {
  co_await r.write(a);
  co_await r.write(b);
}

// --- Scheduler::crash semantics ---------------------------------------------

TEST(Crash, PoisedOperationDiesUnexecuted) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 7), "q1");
  sched.spawn(write_once(r, 9), "q2");
  // Start q1 so its write is poised, then crash it: the write must never
  // reach the register - a crash lands between posing and the atomic step.
  // (run_step on a fresh process runs the prologue AND grants the first
  // step, so q1 is only *poised* before any run_step; crash it cold.)
  sched.crash(0);
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(r.peek(), std::optional<Val>(9));
  EXPECT_TRUE(sched.is_crashed(0));
  EXPECT_FALSE(sched.is_done(0));
  EXPECT_EQ(sched.steps_taken(0), 0u);
}

TEST(Crash, MidOperationCrashDiscardsOnlyTheUnexecutedStep) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  sched.run_step(0);  // first write lands
  EXPECT_EQ(r.peek(), std::optional<Val>(1));
  sched.crash(0);     // poised second write dies
  EXPECT_TRUE(sched.all_done());  // crash-closure: only a crashed process left
  EXPECT_EQ(r.peek(), std::optional<Val>(1));
}

TEST(Crash, CrashedProcessIsNeverRunnableAgain) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.spawn(write_once(r, 2), "q2");
  sched.crash(0);
  auto runnable = sched.runnable();
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], 1u);
  EXPECT_THROW(sched.run_step(0), std::logic_error);
  EXPECT_EQ(sched.crashed_count(), 1u);
}

TEST(Crash, ErrorsOnFinishedOrRepeatedCrash) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.run_step(0);
  ASSERT_TRUE(sched.is_done(0));
  EXPECT_THROW(sched.crash(0), std::logic_error);

  Scheduler sched2;
  mem::Register r2(sched2, "r");
  sched2.spawn(write_once(r2, 1), "q1");
  sched2.crash(0);
  EXPECT_THROW(sched2.crash(0), std::logic_error);
}

TEST(Crash, TraceRecordsCrashEvents) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  sched.run_step(0);
  sched.crash(0);
  ASSERT_EQ(sched.trace().size(), 2u);
  const auto& ev = sched.trace().events.back();
  EXPECT_EQ(ev.kind, StepKind::kCrash);
  EXPECT_EQ(ev.process, 0u);
  EXPECT_NE(sched.trace().to_text().find("crash"), std::string::npos);
}

TEST(Crash, StateDigestDistinguishesCrashedFromStalled) {
  // Same steps executed; one world crashed q2, the other merely never
  // scheduled it.  The digests must differ (the crashed flag is state: the
  // residual subtrees differ).
  auto digest = [](bool crash) {
    Scheduler sched;
    mem::Register r(sched, "r");
    sched.spawn(write_once(r, 1), "q1");
    sched.spawn(write_once(r, 2), "q2");
    sched.run_step(0);
    if (crash) {
      sched.crash(1);
    }
    util::HashSink sink;
    sched.state_digest(sink);
    return sink.digest();
  };
  EXPECT_FALSE(digest(true) == digest(false));
}

TEST(Crash, ScheduleEntryEncodingRoundTrips) {
  const ProcessId pid = 5;
  const ProcessId entry = make_crash_entry(pid);
  EXPECT_TRUE(runtime::is_crash_entry(entry));
  EXPECT_FALSE(runtime::is_crash_entry(pid));
  EXPECT_EQ(runtime::crash_entry_target(entry), pid);

  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  runtime::apply_schedule_entry(sched, make_crash_entry(0));
  EXPECT_TRUE(sched.is_crashed(0));
}

// --- CrashAdversary ---------------------------------------------------------

TEST(CrashAdversary, ScriptedPlanFiresAtStepBoundaries) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  sched.spawn(write_twice(r, 3, 4), "q2");
  RoundRobinAdversary base;
  CrashAdversary adv(sched, base, {{/*at_step=*/2, /*pid=*/0}});
  EXPECT_TRUE(sched.run(adv));
  EXPECT_TRUE(sched.is_crashed(0));
  EXPECT_TRUE(sched.is_done(1));
  ASSERT_EQ(adv.performed().size(), 1u);
  EXPECT_EQ(adv.performed()[0].pid, 0u);
  // Round-robin ran q1 then q2 before the crash fired at step boundary 2,
  // so q1's first write landed and its second died with it.
  EXPECT_EQ(sched.steps_taken(0), 1u);
  EXPECT_EQ(r.peek(), std::optional<Val>(4));
}

TEST(CrashAdversary, CrashingEveryoneCompletesTheRun) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.spawn(write_once(r, 2), "q2");
  RoundRobinAdversary base;
  CrashAdversary adv(sched, base, {{0, 0}, {0, 1}});
  EXPECT_TRUE(sched.run(adv));  // crash-complete execution, not a cut
  EXPECT_EQ(sched.total_steps(), 0u);
  EXPECT_EQ(sched.crashed_count(), 2u);
  EXPECT_EQ(r.peek(), std::nullopt);
}

TEST(CrashAdversary, MootPointsAreDroppedSilently) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  RoundRobinAdversary base;
  CrashAdversary adv(sched, base, {{/*at_step=*/5, /*pid=*/0}});
  EXPECT_TRUE(sched.run(adv));  // q1 finishes at step 1; the point is moot
  EXPECT_TRUE(adv.performed().empty());
  EXPECT_FALSE(sched.is_crashed(0));
}

TEST(CrashAdversary, SeededRandomPlanIsDeterministicAndValidated) {
  auto plan_for = [](std::uint64_t seed) {
    Scheduler sched;
    mem::Register r(sched, "r");
    sched.spawn(write_once(r, 1), "q1");
    sched.spawn(write_once(r, 2), "q2");
    sched.spawn(write_once(r, 3), "q3");
    RoundRobinAdversary base;
    CrashAdversary adv(sched, base, seed, /*max_crashes=*/2, /*horizon=*/10);
    return adv.plan();
  };
  auto a = plan_for(42);
  auto b = plan_for(42);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].pid, b[0].pid);
  EXPECT_EQ(a[0].at_step, b[0].at_step);
  EXPECT_NE(a[0].pid, a[1].pid);  // distinct victims

  Scheduler sched;
  RoundRobinAdversary base;
  // No processes spawned yet.
  EXPECT_THROW(CrashAdversary(sched, base, 1, 1, 10), std::invalid_argument);
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  // More crashes than processes; zero horizon.
  EXPECT_THROW(CrashAdversary(sched, base, 1, 2, 10), std::invalid_argument);
  EXPECT_THROW(CrashAdversary(sched, base, 1, 1, 0), std::invalid_argument);
  // Scripted plan naming an unspawned process.
  EXPECT_THROW(CrashAdversary(sched, base, {{0, 3}}), std::invalid_argument);
}

// --- ScriptedAdversary contract ---------------------------------------------

TEST(Scripted, SkipPolicyConsumesStaleEntries) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.spawn(write_once(r, 2), "q2");
  // q1 finishes after one step; the stale second "0" entry is skipped.
  ScriptedAdversary adv({0, 0, 1}, /*stop_at_end=*/true);
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(adv.position(), 3u);
}

TEST(Scripted, ErrorPolicyThrowsOnStaleEntry) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.spawn(write_once(r, 2), "q2");
  ScriptedAdversary adv({0, 0, 1}, /*stop_at_end=*/true,
                        ScriptedAdversary::OnUnrunnable::kError);
  EXPECT_THROW(sched.run(adv), std::logic_error);
}

TEST(Scripted, ErrorPolicyThrowsOnCrashedTarget) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  sched.spawn(write_once(r, 3), "q2");
  sched.crash(0);
  ScriptedAdversary adv({0, 1}, /*stop_at_end=*/true,
                        ScriptedAdversary::OnUnrunnable::kError);
  EXPECT_THROW(sched.run(adv), std::logic_error);
}

TEST(Scripted, EmptyScriptWithStopAtEndIsAZeroStepCut) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  ScriptedAdversary adv({}, /*stop_at_end=*/true);
  EXPECT_FALSE(sched.run(adv));  // cut, not completion
  EXPECT_EQ(sched.total_steps(), 0u);
}

TEST(Scripted, EmptyScriptFallsThroughToRoundRobinTail) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_once(r, 1), "q1");
  sched.spawn(write_once(r, 2), "q2");
  ScriptedAdversary adv({}, /*stop_at_end=*/false);
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(sched.total_steps(), 2u);
}

// --- ProgressMonitor --------------------------------------------------------

TEST(Watchdog, RejectsZeroBudget) {
  Scheduler sched;
  EXPECT_THROW(ProgressMonitor(sched, 0), std::invalid_argument);
}

TEST(Watchdog, FlagsOverBudgetOperationsLiveAndCompleted) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  ProgressMonitor mon(sched, /*step_budget=*/1);
  const std::size_t tok = mon.begin(0, "double-write");
  sched.run_step(0);
  EXPECT_FALSE(mon.check().has_value());  // 1 own step: at budget
  sched.run_step(0);
  auto live = mon.check();  // 2 own steps, op still open
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->process, 0u);
  EXPECT_EQ(live->steps, 2u);
  EXPECT_FALSE(live->completed);
  mon.end(tok);
  auto done = mon.check();  // completed-but-overlong is still a violation
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->completed);
  EXPECT_NE(done->message().find("double-write"), std::string::npos);
  EXPECT_NE(done->message().find("q1"), std::string::npos);
}

TEST(Watchdog, CrashFreezesTheCountAndExcusesTheOperation) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(write_twice(r, 1, 2), "q1");
  sched.spawn(write_twice(r, 3, 4), "q2");
  ProgressMonitor mon(sched, /*step_budget=*/2);
  mon.begin(0, "double-write");
  sched.run_step(0);
  sched.crash(0);  // in-flight op frozen at 1 own step
  sched.run_step(1);
  sched.run_step(1);
  EXPECT_FALSE(mon.check().has_value());  // crash is not starvation
}

// --- crash-branching exploration --------------------------------------------

TEST(CrashExplore, BranchCountsOnTinyWorld) {
  // Executions of two 1-step writers:
  //   crash-free:      s0 s1 | s1 s0                               = 2
  //   max_crashes = 1: + s0 c1 | s1 c0 | c0 s1 | c1 s0             = 6
  //   max_crashes = 2: + c0 c1 (c1 c0 canonicalized away:
  //                     adjacent crashes commute)                  = 7
  // Two single-step writers: small enough to count leaves by hand.
  const auto factory = test_worlds::register_factory(2, 1);
  ScheduleExploreOptions opt;
  EXPECT_EQ(explore_schedules(factory, opt).executions, 2u);
  opt.max_crashes = 1;
  EXPECT_EQ(explore_schedules(factory, opt).executions, 6u);
  opt.max_crashes = 2;
  EXPECT_EQ(explore_schedules(factory, opt).executions, 7u);
}

TEST(CrashExplore, OptionValidation) {
  const auto factory = test_worlds::register_factory(2, 1);
  ScheduleExploreOptions opt;
  opt.max_steps = 0;
  EXPECT_THROW(explore_schedules(factory, opt), std::invalid_argument);
  opt.max_steps = 4;
  opt.max_crashes = 4;  // crash entries occupy schedule slots
  EXPECT_THROW(explore_schedules(factory, opt), std::invalid_argument);
  opt.max_crashes = 0;
  opt.dedupe_audit = true;  // audit without dedupe
  EXPECT_THROW(explore_schedules(factory, opt), std::invalid_argument);
}

// The acceptance pair: crash-closed exploration of the tiny augmented
// snapshot instance finds NO wait-freedom violation for the real
// Block-Update with up to 2 injected crashes, while the deliberately
// non-wait-free mutant IS flagged - with a witness whose replay reproduces
// the verdict bit for bit.

TEST(CrashExplore, BlockUpdateStaysWaitFreeUnderTwoCrashes) {
  ScheduleExploreOptions opt;
  opt.max_crashes = 2;
  auto res = explore_schedules(make_world_factory("aug-bu:2,2,10"), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation;
  // Regression anchor: deterministic crash-closed leaf count of this
  // instance (changes iff the object's step structure or the crash
  // branching rules change).
  EXPECT_EQ(res.executions, 4357u);
}

TEST(CrashExplore, MutantIsFlaggedAndWitnessReplays) {
  const std::string world = "aug-mutant:2,2,10";
  ScheduleExploreOptions opt;
  opt.max_crashes = 2;
  auto res = explore_schedules(make_world_factory(world), opt);
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_NE(res.violation->find("progress violation"), std::string::npos);

  Witness w;
  w.world = world;
  w.max_steps = opt.max_steps;
  w.max_crashes = opt.max_crashes;
  w.verdict = *res.violation;
  w.schedule = res.witness;
  // Round-trip through the on-disk format, then replay from the parsed
  // form: the verdict must be re-derived identically.
  const std::string path = "witness_mutant_flagged.txt";
  check::write_witness_file(w, path);
  Witness loaded = check::load_witness_file(path);
  EXPECT_EQ(loaded.world, world);
  EXPECT_EQ(loaded.schedule, w.schedule);
  auto replayed = check::replay_witness(loaded);
  EXPECT_TRUE(replayed.matches);
  ASSERT_TRUE(replayed.verdict.has_value());
  EXPECT_EQ(*replayed.verdict, *res.violation);
  std::remove(path.c_str());
}

TEST(CrashExplore, CrashingTheInterfererRestoresMutantCompliance) {
  // The mutant's violation needs live interference: 9 own steps solo,
  // +2 per interfering update batch.  Crash q1 before it updates and run
  // q2's mutant Block-Update solo: 9 <= 10, no violation - crashes excuse
  // rather than create progress violations.
  auto world = make_world_factory("aug-mutant:2,2,10")();
  Scheduler& sched = world->scheduler();
  sched.crash(0);
  while (!sched.runnable().empty()) {
    sched.run_step(1);
  }
  EXPECT_TRUE(sched.is_done(1));
  EXPECT_EQ(sched.steps_taken(1), 9u);
  EXPECT_FALSE(world->verdict(true).has_value());
}

TEST(CrashExplore, SerialAndParallelAgreeUnderCrashes) {
  const auto factory = make_world_factory("aug-bu:2,2,10");
  ScheduleExploreOptions opt;
  opt.max_crashes = 1;
  auto serial = explore_schedules(factory, opt);
  check::ParallelExploreOptions popt;
  popt.base = opt;
  popt.threads = 2;
  popt.oversubscribe = true;
  auto parallel = check::parallel_explore_schedules(factory, popt);
  EXPECT_EQ(serial.executions, parallel.executions);
  EXPECT_EQ(serial.exhausted, parallel.exhausted);
  EXPECT_EQ(serial.violation, parallel.violation);
  EXPECT_EQ(serial.witness, parallel.witness);
}

// --- witness format ---------------------------------------------------------

TEST(Witness, TextRoundTripIncludingCrashEntries) {
  Witness w;
  w.world = "aug-bu:3,2,6";
  w.max_steps = 40;
  w.max_crashes = 2;
  w.verdict = "progress violation: q1's Block-Update took 7 own steps";
  w.schedule = {0, 1, make_crash_entry(2), 0, make_crash_entry(1)};
  Witness back = check::parse_witness(check::to_text(w));
  EXPECT_EQ(back.world, w.world);
  EXPECT_EQ(back.max_steps, w.max_steps);
  EXPECT_EQ(back.max_crashes, w.max_crashes);
  EXPECT_EQ(back.verdict, w.verdict);
  EXPECT_EQ(back.schedule, w.schedule);
}

// parse_witness must throw std::invalid_argument whose message contains
// `why`.
void expect_refused(const std::string& text, const std::string& why) {
  try {
    (void)check::parse_witness(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what() << "\nfor:\n"
        << text;
  }
}

TEST(Witness, ParserRejectsMalformedFiles) {
  const std::string head = "revisim-witness v2\nworld aug-mutant:2,2,10\n";
  expect_refused("not a witness\n", "expected header");
  expect_refused(head, "missing \"end\"");
  expect_refused(head + "schedule x9\nend\n", "bad schedule entry \"x9\"");
  expect_refused(head + "bogus key\nend\n", "unknown key \"bogus\"");
  EXPECT_THROW(check::load_witness_file("no_such_witness_file.txt"),
               std::runtime_error);

  // Numbers and pids are decimal digits only: no trailing junk, no sign,
  // no leading space.
  expect_refused(head + "max_steps -1\nend\n", "max_steps");
  expect_refused(head + "max_steps 64x\nend\n", "max_steps");
  expect_refused(head + "max_crashes  2\nend\n", "max_crashes");
  expect_refused(head + "max_crashes 18446744073709551616\nend\n",
                 "max_crashes");
  expect_refused(head + "schedule s0 s0junk s1\nend\n", "\"s0junk\"");
  expect_refused(head + "schedule s-1\nend\n", "\"s-1\"");
  expect_refused(head + "schedule c+1\nend\n", "\"c+1\"");
  expect_refused(head + "schedule s18446744073709551615\nend\n",
                 "s18446744073709551615");

  // The world is one registry spec, and it is required: a witness without
  // it must not silently replay some default world.
  expect_refused("revisim-witness v2\nmax_steps 64\nschedule s0\nend\n",
                 "missing \"world\" line");
  expect_refused("revisim-witness v2\nworld aug-bu 2\nend\n", "world");
  expect_refused("revisim-witness v2\nworld aug-mutant:2x,2,10\nend\n",
                 "f must be a decimal count");
  expect_refused(head + "world aug-bu:2,2,10\nend\n",
                 "duplicate key \"world\"");

  // Format v1 named the world by four keys; it is refused by name.
  expect_refused("revisim-witness v1\nworld aug-mutant\nprocesses 2\nend\n",
                 "witness format v1");
}

// Witnesses once carried an optional `por` line recording that the
// exploration ran with partial-order reduction.  The reduction is gone, so
// such a file is refused naming the line, in either of its old spellings,
// rather than replayed as if the key meant nothing.
TEST(Witness, PorLineIsRefusedNamingItsLine) {
  const std::string head = "revisim-witness v2\nworld aug-mutant:2,2,8\n";
  expect_refused(head + "por 1\nschedule s0 c1 s0\nend\n",
                 "witness line 3: unknown key \"por\"");
  expect_refused(head + "max_steps 32\npor 0\nend\n",
                 "witness line 4: unknown key \"por\"");
}

// The registry reaches replay: a witness of the simulation world, on either
// substrate, survives the text format and reproduces its verdict.
TEST(Witness, SimulationWitnessRoundTrips) {
  for (const std::string world :
       {"sim-racing:2,1,1,1", "sim-racing:2,1,0,1,registers"}) {
    SCOPED_TRACE(world);
    ScheduleExploreOptions opt;
    opt.max_steps = 16;  // too shallow for some schedules to finish
    auto res = explore_schedules(make_world_factory(world), opt);
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_NE(res.violation->find("did not finish"), std::string::npos);

    Witness w;
    w.world = world;
    w.max_steps = opt.max_steps;
    w.verdict = *res.violation;
    w.schedule = res.witness;
    const Witness back = check::parse_witness(check::to_text(w));
    EXPECT_EQ(back.world, world);
    EXPECT_EQ(back.schedule, w.schedule);
    const auto replayed = check::replay_witness(back);
    EXPECT_TRUE(replayed.matches);
    EXPECT_EQ(replayed.steps, res.witness.size());
    EXPECT_EQ(replayed.verdict, res.violation);
  }
}

// --- the world registry ---------------------------------------------------

TEST(Worlds, MalformedSpecsAreRefusedNamingSpecAndField) {
  const std::pair<const char*, const char*> bad[] = {
      {"aug-bu:2,x,6", "m must be a decimal count"},
      {"aug-bu:2,2", "takes f,m,budget"},
      {"aug-bu:2,2,6,1", "takes f,m,budget"},
      {"aug-bu:2,2,0", "budget must be >= 1"},
      {"aug-bu:-2,2,6", "f must be a decimal count"},
      {"aug-bu: 2,2,6", "f must be a decimal count"},
      {"aug-bu", "takes f,m,budget"},
      {"nope:1", "unknown world \"nope\""},
      {"sim-racing:4,3,0,0", "m must be >= 1"},
      {"sim-racing:3,3,0,1", "below the partition minimum"},
      {"sim-racing:4,1,3,1", "x must be <= k+1"},
      {"sim-racing:4,3,0,1,plain", "substrate"},
      {"sim-racing:4,3,0", "takes n,k,x,m[,atomic|registers]"},
      {"aug-script:2", "takes m,ops,ops,..."},
      {"aug-script:2,u2", "component below m"},
      {"aug-script:2,u", "component below m"},
      {"aug-script:2,sx", "unknown op 'x'"},
      {"aug-script:2,s,", "op word 2 \"\" is empty"},
      {"aug-script:2,u0u0u0u0u0u0u0u0u0u0,u0s", "writes more than 9 values"},
      {"aug-script:10,s,w", "op word 2 \"w\" writes more than 9 values"},
      {"sim-racing:2,922337203685477580,1,1", "k is too large"},
  };
  for (const auto& [spec, why] : bad) {
    try {
      (void)make_world_factory(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("\"") + spec + "\""), std::string::npos)
          << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  }
  // The largest scripts the value rule admits: 9 values per process.
  EXPECT_NO_THROW((void)make_world_factory("aug-script:9,w,s"));
  EXPECT_NO_THROW((void)make_world_factory("aug-script:1,u0u0u0u0u0u0u0u0u0"));
}

TEST(Worlds, SimulationWorldRefusesDedupe) {
  // The simulators' local state is not fingerprinted, so deduping would
  // prune unsoundly: the world refuses, and no execution is counted.
  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  try {
    (void)explore_schedules(make_world_factory("sim-racing:2,1,0,1"), opt);
    ADD_FAILURE() << "dedupe ran on sim-racing";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sim-racing"), std::string::npos) << what;
    EXPECT_NE(what.find("dedupe"), std::string::npos) << what;
  }
  opt.dedupe_states = false;
  opt.max_steps = 64;
  const auto res =
      explore_schedules(make_world_factory("sim-racing:2,1,0,1"), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation.has_value());
}

TEST(Witness, ReplayAppliesCrashEntriesAndChecksPids) {
  Witness w;
  w.world = "aug-bu:2,2,10";
  w.verdict = "";
  // Crash q1 cold, then run q2's Block-Update to completion (6 steps).
  w.schedule = {make_crash_entry(0), 1, 1, 1, 1, 1, 1};
  auto res = check::replay_witness(w);
  EXPECT_TRUE(res.matches);  // accepted on both sides
  EXPECT_EQ(res.steps, 6u);
  EXPECT_EQ(res.crashes, 1u);
  EXPECT_FALSE(res.verdict.has_value());

  Witness bad = w;
  bad.schedule = {9};
  EXPECT_THROW(check::replay_witness(bad), std::invalid_argument);

  Witness unknown = w;
  unknown.world = "no-such-world:2,2,10";
  EXPECT_THROW(check::replay_witness(unknown), std::invalid_argument);
}

// --- §3.2 distinction and crash tolerance of the bigger layers --------------

Task<void> endless_updates_local(AugmentedSnapshot& m, ProcessId me) {
  for (;;) {
    std::vector<std::size_t> comps{0};
    std::vector<Val> vals{Val(1)};
    co_await m.BlockUpdate(me, comps, vals);
  }
}

Task<void> one_scan_local(AugmentedSnapshot& m, ProcessId me, bool& done) {
  co_await m.Scan(me);
  done = true;
}

TEST(CrashTolerance, CrashingTheUpdaterUnstarvesScan) {
  // §3.2 under crashes: Scan is non-blocking, not wait-free - a stream of
  // Block-Updates starves it - but the starvation needs a *live* adversary.
  // Crash the updater mid-stream and the double collect stabilizes within
  // two collects: the crash turned an infinite execution into one where
  // Scan's termination is guaranteed.
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 1, 2);
  bool finished = false;
  sched.spawn(endless_updates_local(m, 0), "q1");
  sched.spawn(one_scan_local(m, 1, finished), "q2");
  std::vector<ProcessId> pattern;
  pattern.push_back(1);  // first collect
  for (int round = 0; round < 10; ++round) {
    for (int s = 0; s < 6; ++s) {
      pattern.push_back(0);  // interfering Block-Update
    }
    pattern.push_back(1);  // L-write
    pattern.push_back(1);  // confirming collect: invalidated again
  }
  ScriptedAdversary starve(pattern, /*stop_at_end=*/true);
  EXPECT_FALSE(sched.run(starve, pattern.size() + 10, false));
  EXPECT_FALSE(finished);
  sched.crash(0);
  RoundRobinAdversary rest;
  EXPECT_TRUE(sched.run(rest));
  EXPECT_TRUE(finished);
}

TEST(CrashTolerance, SimulationTerminatesWithCrashedSimulator) {
  // Theorem 21's simulation is wait-free per simulator: with f = 2
  // simulators, crashing one (f - 1 crashes) must leave the survivor able
  // to finish the whole simulation on its own.
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    Scheduler sched;
    proto::RacingAgreement protocol(4, 2);
    sim::SimulationDriver driver(sched, protocol, {10, 20});
    runtime::RandomAdversary base(seed);
    CrashAdversary adv(sched, base, {{/*at_step=*/10, /*pid=*/0}});
    ASSERT_TRUE(driver.run(adv, 2'000'000)) << "seed " << seed;
    EXPECT_TRUE(sched.is_crashed(0)) << "seed " << seed;
    EXPECT_TRUE(driver.finished(1)) << "seed " << seed;
  }
}

TEST(CrashTolerance, SoloTerminationFromPostCrashConfigurations) {
  // Protocol-level crash closure: from every configuration reachable with
  // up to one crash, every *surviving* process must still terminate solo.
  auto nd = std::make_shared<solo::NDCoinConsensus>(2, 2);
  solo::DeterminizedProtocol det(nd);
  tasks::KSetAgreement consensus(1);
  check::ExploreOptions opt;
  opt.max_depth = 10;
  opt.solo_budget = 1000;
  opt.max_crashes = 1;
  auto res = check::explore(det, {0, 1}, consensus, opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.termination_violation) << *res.termination_violation;
}

TEST(CrashTolerance, ProtocolCheckerValidatesCrashOptions) {
  auto nd = std::make_shared<solo::NDCoinConsensus>(2, 2);
  solo::DeterminizedProtocol det(nd);
  tasks::KSetAgreement consensus(1);
  check::ExploreOptions opt;
  opt.max_crashes = 2;  // == process count: nobody left to terminate
  EXPECT_THROW(check::explore(det, {0, 1}, consensus, opt),
               std::invalid_argument);
  opt.max_crashes = 0;
  opt.solo_budget = 0;
  EXPECT_THROW(check::explore(det, {0, 1}, consensus, opt),
               std::invalid_argument);
  opt.solo_budget = 100;
  opt.max_states = 0;
  EXPECT_THROW(check::explore(det, {0, 1}, consensus, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace revisim
