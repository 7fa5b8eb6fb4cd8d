// Distributed schedule exploration: wire-format round trips, the shared
// key-sorted merge, and end-to-end fork-mode runs pinned bit-for-bit
// against the serial explorer.
//
// The parity tests reuse the closed-form ScriptWorld idea from
// parallel_explore_test.cpp: each process performs a fixed number of
// writes and logs its pid, so a completed execution's log *is* its
// schedule, leaf counts are multinomial coefficients, and the
// lexicographically-smallest-witness guarantee is checkable by hand.
// Distributed runs fork real worker processes over loopback TCP, so these
// tests exercise the full serialize/re-replay/merge path, including steals
// donated across the wire.  Failure-path tests use the coordinator's
// fault-injection hook (the worker _Exit()s mid-job, exactly like a
// killed process) to pin the re-queue and partial-summary contracts.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/crash_worlds.h"
#include "src/check/explore_core.h"
#include "src/check/explore_merge.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/dist/coordinator.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using check::ExplorableWorld;
using check::explore_schedules;
using check::parallel_explore_schedules;
using check::ParallelExploreOptions;
using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using dist::DistExploreOptions;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::StepKind;
using runtime::Task;

using Schedule = std::vector<ProcessId>;

Task<void> count_script(Scheduler& sched, std::size_t obj,
                        std::vector<ProcessId>& order, ProcessId me,
                        std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched, [&order, me] { order.push_back(me); }, obj, StepKind::kWrite,
        {});
  }
}

// Processes i = 0..n-1 perform writes[i] steps each and flag a violation on
// any completed execution whose schedule is in `planted`.  Processes with
// index >= first_private write a private register instead of the shared
// one, giving POR step-swap classes to collapse; parity tests that enable
// POR must plant nothing (the order log is not trace-invariant).
class ScriptWorld final : public ExplorableWorld {
 public:
  ScriptWorld(std::vector<std::size_t> writes, std::vector<Schedule> planted,
              std::size_t first_private = SIZE_MAX)
      : planted_(std::move(planted)) {
    const std::size_t shared = sched_.register_object("r");
    for (ProcessId p = 0; p < writes.size(); ++p) {
      const std::size_t obj = p >= first_private
                                  ? sched_.register_object("own")
                                  : shared;
      sched_.spawn(count_script(sched_, obj, order_, p, writes[p]), "q");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete &&
        std::find(planted_.begin(), planted_.end(), order_) != planted_.end()) {
      return "planted violation";
    }
    return std::nullopt;
  }

  // The verdict reads the order log, so the fingerprint soundness contract
  // requires folding it in; every state then being unique, dedupe must
  // prune nothing and reproduce undeduped results bit-for-bit.
  void fingerprint_extra(util::StateSink& sink) override {
    util::feed(sink, order_);
  }

 private:
  Scheduler sched_;
  std::vector<ProcessId> order_;
  std::vector<Schedule> planted_;
};

auto script_factory(std::vector<std::size_t> writes,
                    std::vector<Schedule> planted = {},
                    std::size_t first_private = SIZE_MAX) {
  return [writes = std::move(writes), planted = std::move(planted),
          first_private] {
    return std::make_unique<ScriptWorld>(writes, planted, first_private);
  };
}

Task<void> reg_script(mem::TypedRegister<int>& r, std::size_t writes) {
  for (std::size_t i = 1; i <= writes; ++i) {
    co_await r.write(static_cast<int>(i));
  }
}

// POR-reducible fixture: `contended` processes write one shared register
// (every pair of their steps conflicts), the rest write private registers
// (independent, so POR collapses their placements).  The verdict is always
// accepting - trivially trace-invariant - so the test can compare raw
// reduction counters across engines.  Footprints come from the real memory
// primitive; ScriptWorld's raw StepAwaiters are opaque to POR.
class MixedWorld final : public ExplorableWorld {
 public:
  MixedWorld(std::size_t contended, std::size_t private_procs,
             std::size_t writes) {
    regs_.push_back(
        std::make_unique<mem::TypedRegister<int>>(sched_, "shared", 0));
    for (std::size_t p = 0; p < contended; ++p) {
      sched_.spawn(reg_script(*regs_[0], writes), "q");
    }
    for (std::size_t p = 0; p < private_procs; ++p) {
      regs_.push_back(std::make_unique<mem::TypedRegister<int>>(
          sched_, "own" + std::to_string(p), 0));
      sched_.spawn(reg_script(*regs_.back(), writes), "q");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool /*complete*/) override {
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  std::vector<std::unique_ptr<mem::TypedRegister<int>>> regs_;
};

auto mixed_factory(std::size_t contended, std::size_t private_procs,
                   std::size_t writes) {
  return [contended, private_procs, writes] {
    return std::make_unique<MixedWorld>(contended, private_procs, writes);
  };
}

// Every state hashes to one fingerprint while canonical_state() stays
// honest: the collision audit must see distinct texts behind one hash.
class CollidingWorld final : public ExplorableWorld {
 public:
  CollidingWorld() : inner_({2, 2, 1}, {}) {}

  Scheduler& scheduler() override { return inner_.scheduler(); }
  std::optional<std::string> verdict(bool complete) override {
    return inner_.verdict(complete);
  }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_.fingerprint_extra(sink);
  }
  util::Fingerprint fingerprint() override { return {7, 7}; }

 private:
  ScriptWorld inner_;
};

Task<void> aug_mixed(AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> comps{0};
  std::vector<Val> vals{Val(10 * (me + 1))};
  co_await m.BlockUpdate(me, comps, vals);
  co_await m.Scan(me);
}

Task<void> aug_scan(AugmentedSnapshot& m, ProcessId me) {
  co_await m.Scan(me);
}

// parallel_explore_test.cpp's pinned augmented world: q1 Scans, q2 runs a
// Block-Update then a Scan, and the verdict is the section 3.3 linearizer.
class AugMixedWorld final : public ExplorableWorld {
 public:
  AugMixedWorld() : m_(sched_, "M", 2, 2) {
    sched_.spawn(aug_scan(m_, 0), "q1");
    sched_.spawn(aug_mixed(m_, 1), "q2");
  }

  Scheduler& scheduler() override { return sched_; }

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
  Scheduler sched_;
  AugmentedSnapshot m_;
};

void expect_same(const ScheduleExploreResult& got,
                 const ScheduleExploreResult& want, const std::string& what) {
  EXPECT_EQ(got.executions, want.executions) << what;
  EXPECT_EQ(got.exhausted, want.exhausted) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.witness, want.witness) << what;
}

// --- wire primitives ---------------------------------------------------------

TEST(Wire, EntryEncodingCarriesCrashFlagInBit63) {
  const ProcessId step = 5;
  const ProcessId crash = runtime::make_crash_entry(7);
  EXPECT_EQ(dist::entry_to_wire(step), 5u);
  EXPECT_EQ(dist::entry_to_wire(crash), (std::uint64_t{1} << 63) | 7u);
  EXPECT_EQ(dist::entry_from_wire(dist::entry_to_wire(step)), step);
  EXPECT_EQ(dist::entry_from_wire(dist::entry_to_wire(crash)), crash);
  EXPECT_TRUE(
      runtime::is_crash_entry(dist::entry_from_wire(dist::entry_to_wire(crash))));
  EXPECT_EQ(runtime::crash_entry_target(
                dist::entry_from_wire(dist::entry_to_wire(crash))),
            7u);
}

TEST(Wire, PrimitiveRoundTrip) {
  dist::WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.str(std::string("hello\0world", 11));  // embedded NUL survives
  w.fingerprint(util::Fingerprint{0x1111222233334444ull, 0x5555666677778888ull});
  const Schedule sched{0, 2, runtime::make_crash_entry(1), 0};
  w.schedule(sched);

  dist::WireReader r(w.data(), w.size());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.str(), std::string("hello\0world", 11));
  const util::Fingerprint fp = r.fingerprint();
  EXPECT_EQ(fp.hi, 0x1111222233334444ull);
  EXPECT_EQ(fp.lo, 0x5555666677778888ull);
  EXPECT_EQ(r.schedule(), sched);
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, ReaderRejectsTruncationTrailingBytesAndCorruptCounts) {
  dist::WireWriter w;
  w.u16(7);
  {
    dist::WireReader r(w.data(), w.size());
    EXPECT_THROW(r.u64(), dist::WireError);  // 2 bytes cannot hold a u64
  }
  {
    dist::WireReader r(w.data(), w.size());
    (void)r.u8();
    EXPECT_FALSE(r.done());
    EXPECT_THROW(r.expect_done(), dist::WireError);  // trailing byte
  }
  dist::WireWriter c;
  c.u32(0xffffffffu);  // schedule count with no entries behind it
  {
    dist::WireReader r(c.data(), c.size());
    EXPECT_THROW(r.schedule(), dist::WireError);
  }
}

// --- typed message round trips ----------------------------------------------

TEST(Wire, HelloRoundTripAndVersionCheck) {
  dist::HelloMsg m;
  m.worker = 3;
  m.options.max_steps = 48;
  m.options.max_crashes = 2;
  m.options.record_traces = true;
  m.options.dedupe_states = true;
  m.options.dedupe_audit = true;
  m.options.por = true;
  m.live_interval = 99;
  m.world = "aug-mutant";
  m.f = 2;
  m.m = 3;
  m.step_budget = 10;

  dist::WireWriter w;
  dist::encode_hello(w, m);
  dist::WireReader r(w.data(), w.size());
  const dist::HelloMsg got = dist::decode_hello(r);
  r.expect_done();
  EXPECT_EQ(got.worker, m.worker);
  EXPECT_EQ(got.options.max_steps, m.options.max_steps);
  EXPECT_EQ(got.options.max_crashes, m.options.max_crashes);
  EXPECT_EQ(got.options.record_traces, m.options.record_traces);
  EXPECT_EQ(got.options.dedupe_states, m.options.dedupe_states);
  EXPECT_EQ(got.options.dedupe_audit, m.options.dedupe_audit);
  EXPECT_EQ(got.options.por, m.options.por);
  EXPECT_EQ(got.live_interval, m.live_interval);
  EXPECT_EQ(got.world, m.world);
  EXPECT_EQ(got.f, m.f);
  EXPECT_EQ(got.m, m.m);
  EXPECT_EQ(got.step_budget, m.step_budget);

  // A flipped magic byte is version skew, not garbage-in-garbage-out.
  std::vector<std::uint8_t> bad(w.data(), w.data() + w.size());
  bad[0] ^= 0xff;
  dist::WireReader br(bad.data(), bad.size());
  EXPECT_THROW((void)dist::decode_hello(br), dist::WireError);
}

// Rewrites the u16 version that follows the u32 magic in a Hello/HelloAck.
std::vector<std::uint8_t> with_version(const dist::WireWriter& w,
                                       std::uint16_t version) {
  std::vector<std::uint8_t> out(w.data(), w.data() + w.size());
  out[4] = static_cast<std::uint8_t>(version & 0xff);
  out[5] = static_cast<std::uint8_t>(version >> 8);
  return out;
}

// Decodes `bytes` with `decode`, which must throw a WireError naming both
// the peer's version and this binary's.
template <typename Decode>
void expect_version_skew(const std::vector<std::uint8_t>& bytes,
                         Decode decode, std::uint16_t peer) {
  dist::WireReader r(bytes.data(), bytes.size());
  try {
    (void)decode(r);
    ADD_FAILURE() << "wire version " << peer << " was accepted";
  } catch (const dist::WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wire version " + std::to_string(peer)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("speaks " + std::to_string(dist::kWireVersion)),
              std::string::npos)
        << what;
  }
}

// Every version bump changed the layout of some message (the history is
// in wire.h), so a peer speaking any older version must be refused at the
// handshake by name, never misparsed - in both directions.
TEST(Wire, EveryOlderVersionIsRefusedByName) {
  static_assert(dist::kWireVersion == 8);
  for (std::uint16_t v = 1; v < dist::kWireVersion; ++v) {
    SCOPED_TRACE("wire version " + std::to_string(v));
    dist::WireWriter w;
    dist::encode_hello(w, dist::HelloMsg{});
    expect_version_skew(with_version(w, v), dist::decode_hello, v);

    w.clear();
    dist::encode_hello_ack(w, dist::HelloAckMsg{});
    expect_version_skew(with_version(w, v), dist::decode_hello_ack, v);
  }
}

TEST(Wire, JobAndResultRoundTripEverySubtreeField) {
  dist::JobMsg job;
  job.id = 42;
  job.budget = 1234;
  job.fault_after = 9;
  job.region.prefix = {0, 1, runtime::make_crash_entry(0)};
  job.region.choices = {2, runtime::make_crash_entry(1)};
  job.region.sleep = {1, 2};
  job.region.sleep_inherited = 1;
  job.no_dedupe = true;
  dist::WireWriter w;
  dist::encode_job(w, job);
  {
    dist::WireReader r(w.data(), w.size());
    const dist::JobMsg got = dist::decode_job(r);
    r.expect_done();
    EXPECT_EQ(got.id, job.id);
    EXPECT_EQ(got.budget, job.budget);
    EXPECT_EQ(got.fault_after, job.fault_after);
    EXPECT_EQ(got.region.prefix, job.region.prefix);
    EXPECT_EQ(got.region.choices, job.region.choices);
    EXPECT_EQ(got.region.sleep, job.region.sleep);
    EXPECT_EQ(got.region.sleep_inherited, job.region.sleep_inherited);
    EXPECT_EQ(got.no_dedupe, job.no_dedupe);
  }

  {
    // An inherited count past the sleep list is corruption, not data.
    dist::JobMsg bad = job;
    bad.region.sleep_inherited = 3;
    w.clear();
    dist::encode_job(w, bad);
    dist::WireReader r(w.data(), w.size());
    EXPECT_THROW(dist::decode_job(r), dist::WireError);
  }

  dist::JobResultMsg res;
  res.id = 42;
  res.result.executions = 77;
  res.result.fully_explored = false;
  res.result.violation = "planted violation";
  res.result.witness = {0, runtime::make_crash_entry(1), 0};
  res.result.violation_index = 13;
  res.result.subtrees_pruned = 3;
  res.result.states_seen = 21;
  res.result.donations = 2;
  res.result.por_skipped = 5;
  res.result.dependent_wakeups = 6;
  res.result.footprint_bytes = 4096;
  w.clear();
  dist::encode_job_result(w, res);
  {
    dist::WireReader r(w.data(), w.size());
    const dist::JobResultMsg got = dist::decode_job_result(r);
    r.expect_done();
    EXPECT_EQ(got.id, res.id);
    EXPECT_EQ(got.result.executions, res.result.executions);
    EXPECT_EQ(got.result.fully_explored, res.result.fully_explored);
    EXPECT_EQ(got.result.violation, res.result.violation);
    EXPECT_EQ(got.result.witness, res.result.witness);
    EXPECT_EQ(got.result.violation_index, res.result.violation_index);
    EXPECT_EQ(got.result.subtrees_pruned, res.result.subtrees_pruned);
    EXPECT_EQ(got.result.states_seen, res.result.states_seen);
    EXPECT_EQ(got.result.donations, res.result.donations);
    EXPECT_EQ(got.result.por_skipped, res.result.por_skipped);
    EXPECT_EQ(got.result.dependent_wakeups, res.result.dependent_wakeups);
    EXPECT_EQ(got.result.footprint_bytes, res.result.footprint_bytes);
  }
}

TEST(Wire, ControlMessagesRoundTrip) {
  dist::WireWriter w;
  {
    dist::HelloAckMsg m;
    m.ok = false;
    m.error = "unknown world";
    dist::encode_hello_ack(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::HelloAckMsg got = dist::decode_hello_ack(r);
    r.expect_done();
    EXPECT_EQ(got.ok, m.ok);
    EXPECT_EQ(got.error, m.error);
  }
  {
    dist::JobErrorMsg m;
    m.id = 8;
    m.message = "boom";
    w.clear();
    dist::encode_job_error(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::JobErrorMsg got = dist::decode_job_error(r);
    r.expect_done();
    EXPECT_EQ(got.id, m.id);
    EXPECT_EQ(got.message, m.message);
  }
  {
    dist::LiveMsg m;
    m.id = 9;
    m.executions = 512;
    w.clear();
    dist::encode_live(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::LiveMsg got = dist::decode_live(r);
    r.expect_done();
    EXPECT_EQ(got.id, m.id);
    EXPECT_EQ(got.executions, m.executions);
  }
  {
    dist::DonateMsg m;
    m.parent = 4;
    m.region.prefix = {1, 0};
    m.region.choices = {0, 1, runtime::make_crash_entry(0)};
    m.region.sleep = {1, 2};
    m.region.sleep_inherited = 2;
    w.clear();
    dist::encode_donate(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::DonateMsg got = dist::decode_donate(r);
    r.expect_done();
    EXPECT_EQ(got.parent, m.parent);
    EXPECT_EQ(got.region.prefix, m.region.prefix);
    EXPECT_EQ(got.region.choices, m.region.choices);
    EXPECT_EQ(got.region.sleep, m.region.sleep);
    EXPECT_EQ(got.region.sleep_inherited, m.region.sleep_inherited);
  }
  {
    dist::CreditMsg m;
    m.id = 6;
    m.budget = 300;
    m.abort = true;
    w.clear();
    dist::encode_credit(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::CreditMsg got = dist::decode_credit(r);
    r.expect_done();
    EXPECT_EQ(got.id, m.id);
    EXPECT_EQ(got.budget, m.budget);
    EXPECT_EQ(got.abort, m.abort);
  }
}

// --- the shared merge, unit-level -------------------------------------------

TEST(MergeJobs, SumsTelemetryOverCompletedRecordsOnly) {
  check::detail::SubtreeResult a;
  a.executions = 3;
  a.footprint_bytes = 10;
  a.por_skipped = 2;
  check::detail::SubtreeResult b;
  b.executions = 4;
  b.footprint_bytes = 20;
  b.dependent_wakeups = 5;
  const Schedule ka{0};
  const Schedule kb{1};
  std::vector<check::detail::MergeJob> jobs(2);
  jobs[0] = {&kb, check::detail::MergeJob::State::kDone, &b, nullptr};
  jobs[1] = {&ka, check::detail::MergeJob::State::kDone, &a, nullptr};
  auto res = check::detail::merge_job_results(jobs, 1000, 1, {});
  EXPECT_EQ(res.executions, 7u);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation);
  EXPECT_EQ(res.footprint_bytes, 30u);
  EXPECT_EQ(res.por_skipped, 2u);
  EXPECT_EQ(res.dependent_wakeups, 5u);
}

TEST(MergeJobs, FailedRecordDegradesWithAttemptCount) {
  check::detail::SubtreeResult a;
  a.executions = 3;
  const Schedule ka{0};
  const Schedule kb{1};
  const std::string why = "worker 1 disconnected mid-job";
  std::vector<check::detail::MergeJob> jobs(2);
  jobs[0] = {&ka, check::detail::MergeJob::State::kDone, &a, nullptr};
  jobs[1] = {&kb, check::detail::MergeJob::State::kFailed, nullptr, &why};
  auto res = check::detail::merge_job_results(jobs, 1000, 3, {});
  ASSERT_TRUE(res.error.has_value());
  EXPECT_NE(res.error->find("failed after 3 attempt(s)"), std::string::npos);
  EXPECT_NE(res.error->find(why), std::string::npos);
  EXPECT_FALSE(res.exhausted);
  EXPECT_EQ(res.executions, 3u);  // the explored lexicographic prefix
}

TEST(MergeJobs, UnfinishedIsTimeoutOrNamedLoss) {
  const Schedule ka{0};
  std::vector<check::detail::MergeJob> jobs(1);
  jobs[0] = {&ka, check::detail::MergeJob::State::kUnfinished, nullptr,
             nullptr};
  auto timed = check::detail::merge_job_results(jobs, 1000, 1, {});
  EXPECT_TRUE(timed.timed_out);
  EXPECT_FALSE(timed.exhausted);

  jobs[0] = {&ka, check::detail::MergeJob::State::kUnfinished, nullptr,
             nullptr};
  auto lost = check::detail::merge_job_results(jobs, 1000, 1,
                                               "every worker disconnected");
  EXPECT_FALSE(lost.timed_out);
  ASSERT_TRUE(lost.error.has_value());
  EXPECT_EQ(*lost.error, "every worker disconnected");
  EXPECT_FALSE(lost.exhausted);
}

// --- end-to-end fork-mode parity --------------------------------------------

TEST(DistParity, TwoAndFourWorkersBitIdenticalToSerial) {
  // writes {3,3,2}: 8!/(3!3!2!) = 560 leaves.
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  ASSERT_EQ(serial.executions, 560u);
  ASSERT_TRUE(serial.exhausted);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    DistExploreOptions opt;
    opt.workers = workers;
    auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
    expect_same(dist, serial, "workers=" + std::to_string(workers));
    EXPECT_FALSE(dist.error.has_value());
    EXPECT_GE(dist.jobs, 1u);
    EXPECT_LE(dist.steals, dist.jobs - 1);  // aggregation contract
  }
}

TEST(DistParity, LexSmallestWitnessAcrossWorkers) {
  // Two planted violations; serial DFS reports the lexicographically
  // smaller schedule (0101 < 1100), and so must every distributed run.
  const std::vector<Schedule> planted{{1, 1, 0, 0}, {0, 1, 0, 1}};
  auto serial = explore_schedules(script_factory({2, 2}, planted));
  ASSERT_TRUE(serial.violation.has_value());
  ASSERT_EQ(serial.witness, (Schedule{0, 1, 0, 1}));
  DistExploreOptions opt;
  opt.workers = 2;
  auto dist =
      dist::dist_explore_schedules(script_factory({2, 2}, planted), opt);
  expect_same(dist, serial, "lex-smallest witness");
}

TEST(DistParity, CapTruncationMatchesSerial) {
  ScheduleExploreOptions base;
  base.max_executions = 100;  // < 560
  auto serial = explore_schedules(script_factory({3, 3, 2}), base);
  ASSERT_EQ(serial.executions, 100u);
  ASSERT_FALSE(serial.exhausted);
  DistExploreOptions opt;
  opt.base = base;
  opt.workers = 2;
  opt.live_interval = 16;  // tight credits so the cap binds mid-run
  auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial, "cap truncation");
}

TEST(DistParity, CrashBranchingRegistryWorldMatchesSerial) {
  // Budget 6 is aug-bu's smallest violation-free budget: the whole
  // crash-closed tree (2754 executions at max_crashes=1) gets walked.
  check::CrashWorldSpec spec;
  spec.world = "aug-bu";
  spec.f = 2;
  spec.m = 2;
  spec.step_budget = 6;
  ScheduleExploreOptions base;
  base.max_crashes = 1;
  auto serial = explore_schedules(check::make_crash_world_factory(spec), base);
  ASSERT_TRUE(serial.exhausted);
  ASSERT_FALSE(serial.violation.has_value());
  ASSERT_GT(serial.executions, 1000u);
  DistExploreOptions opt;
  opt.base = base;
  opt.workers = 2;
  auto dist = dist::dist_explore_schedules(check::make_crash_world_factory(spec),
                                           opt);
  expect_same(dist, serial, "crash-branching world");

  // Budget 5 starves the protocol: a progress violation exists, and the
  // distributed run must report the same lex-smallest crash-bearing
  // witness schedule the serial engine finds.
  spec.step_budget = 5;
  auto vserial = explore_schedules(check::make_crash_world_factory(spec), base);
  ASSERT_TRUE(vserial.violation.has_value());
  auto vdist = dist::dist_explore_schedules(
      check::make_crash_world_factory(spec), opt);
  expect_same(vdist, vserial, "violating crash-branching world");
}

TEST(DistParity, PorCountersDecompositionInvariant) {
  // Two processes contend on the shared register, one writes a private
  // one: POR collapses the private writer's placements, so por_skipped and
  // dependent_wakeups are nonzero - and, on an exhausted undeduped search,
  // must be identical across serial, in-process parallel and distributed
  // decompositions (the documented aggregation contract).
  ScheduleExploreOptions base;
  base.por = true;
  auto serial = explore_schedules(mixed_factory(2, 1, 2), base);
  ASSERT_TRUE(serial.exhausted);
  ASSERT_GT(serial.por_skipped, 0u);

  ParallelExploreOptions par;
  par.base = base;
  par.threads = 2;
  par.oversubscribe = true;
  par.serial_probe_executions = 0;
  auto inproc = parallel_explore_schedules(mixed_factory(2, 1, 2), par);
  expect_same(inproc, serial, "in-process POR");
  EXPECT_EQ(inproc.por_skipped, serial.por_skipped);
  EXPECT_EQ(inproc.dependent_wakeups, serial.dependent_wakeups);

  DistExploreOptions opt;
  opt.base = base;
  opt.workers = 2;
  auto dist = dist::dist_explore_schedules(mixed_factory(2, 1, 2), opt);
  expect_same(dist, serial, "distributed POR");
  EXPECT_EQ(dist.por_skipped, serial.por_skipped);
  EXPECT_EQ(dist.dependent_wakeups, serial.dependent_wakeups);
  EXPECT_LE(dist.steals, dist.jobs - 1);
}

// --- worker-local dedupe tables ---------------------------------------------

TEST(DistDedupe, AllStatesDistinctMeansNoPruningAnywhere) {
  // ScriptWorld folds the order log into the fingerprint, so every state is
  // unique: no worker table ever hits and the run must reproduce the
  // undeduped results bit-for-bit.
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  DistExploreOptions opt;
  opt.workers = 2;
  opt.base.dedupe_states = true;
  auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial, "dedupe on all-distinct states");
  EXPECT_GT(dist.states_seen, 0u);
}

TEST(DistDedupe, ShardedServiceKeepsVerdictAndBoundsStates) {
  check::CrashWorldSpec spec;
  spec.world = "aug-bu";
  spec.f = 2;
  spec.m = 2;
  spec.step_budget = 6;
  ScheduleExploreOptions base;
  base.max_crashes = 1;
  auto undeduped =
      explore_schedules(check::make_crash_world_factory(spec), base);
  base.dedupe_states = true;
  auto serial = explore_schedules(check::make_crash_world_factory(spec), base);
  ASSERT_TRUE(serial.exhausted);
  ASSERT_LT(serial.executions, undeduped.executions);  // dedupe really prunes

  DistExploreOptions opt;
  opt.base = base;
  opt.workers = 2;
  auto dist = dist::dist_explore_schedules(check::make_crash_world_factory(spec),
                                           opt);
  EXPECT_EQ(dist.violation, serial.violation);
  EXPECT_EQ(dist.exhausted, serial.exhausted);
  // The reported sightings are a subset of the distinct states the serial
  // table records, and the executions never exceed the undeduped tree.
  // (A state two workers both reach is walked twice, so the count can
  // exceed the serial DEDUPED one, but every prune is still a real
  // transposition, so the undeduped bound holds.)
  EXPECT_LE(dist.states_seen, serial.states_seen);
  EXPECT_LE(dist.executions, undeduped.executions);
  EXPECT_FALSE(dist.error.has_value());
}

TEST(DistDedupe, AuditModeRunsClean) {
  check::CrashWorldSpec spec;
  spec.world = "aug-bu";
  spec.f = 2;
  spec.m = 2;
  spec.step_budget = 6;
  DistExploreOptions opt;
  opt.base.max_crashes = 1;
  opt.base.dedupe_states = true;
  opt.base.dedupe_audit = true;
  opt.workers = 2;
  auto dist = dist::dist_explore_schedules(check::make_crash_world_factory(spec),
                                           opt);
  EXPECT_FALSE(dist.error.has_value());
  EXPECT_TRUE(dist.exhausted);
  EXPECT_FALSE(dist.violation.has_value());
}

// Each worker prunes only against its own table, so a state two workers
// both reach is walked twice: executions may exceed the serial deduped
// count, never the undeduped tree.  The reported sightings still add up
// to exactly the serial distinct-state count on a fault-free exhausted
// search - every reachable state is walked by some worker.
TEST(DistDedupe, AugmentedCountsArePinned) {
  const auto factory = [] { return std::make_unique<AugMixedWorld>(); };
  const auto plain = explore_schedules(factory);
  ASSERT_EQ(plain.executions, 1'144u);
  ScheduleExploreOptions base;
  base.dedupe_states = true;
  const auto serial = explore_schedules(factory, base);
  ASSERT_EQ(serial.executions, 1'004u);
  ASSERT_EQ(serial.states_seen, 4'235u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const std::string what = "workers=" + std::to_string(workers);
    DistExploreOptions opt;
    opt.base = base;
    opt.workers = workers;
    const auto dist = dist::dist_explore_schedules(factory, opt);
    EXPECT_FALSE(dist.error.has_value()) << what;
    EXPECT_TRUE(dist.exhausted) << what;
    EXPECT_EQ(dist.violation, serial.violation) << what;
    EXPECT_EQ(dist.states_seen, 4'235u) << what;
    EXPECT_GE(dist.executions, 1'004u) << what;
    EXPECT_LE(dist.executions, 1'144u) << what;
  }
}

// A fabricated collision poisons the run: a worker's audited table reports
// the colliding state before failing its job, and the coordinator's table,
// which also sees every other worker's sightings, names the collision.
TEST(DistDedupe, AuditCollisionPoisonsTheRun) {
  const auto factory = [] { return std::make_unique<CollidingWorld>(); };
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    DistExploreOptions opt;
    opt.base.dedupe_states = true;
    opt.base.dedupe_audit = true;
    opt.workers = workers;
    const auto dist = dist::dist_explore_schedules(factory, opt);
    ASSERT_TRUE(dist.error.has_value()) << "workers=" << workers;
    EXPECT_NE(dist.error->find("collision"), std::string::npos)
        << *dist.error;
    EXPECT_FALSE(dist.exhausted);
  }
}

// --- worker loss -------------------------------------------------------------

TEST(DistFailure, CrashedWorkerJobRequeuesAndRunCompletes) {
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  DistExploreOptions opt;
  opt.workers = 2;
  // Donation-free run: the faulting job must not have donated, so the
  // re-queue (rather than the degradation) path is what gets exercised.
  opt.steal_requests = false;
  opt.fault_first_job_after = 25;  // worker 0 _Exit()s mid-seed-job
  auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial, "complete after re-queue");
  EXPECT_FALSE(dist.error.has_value());
  EXPECT_FALSE(dist.timed_out);
}

TEST(DistFailure, RetryBudgetExhaustionYieldsPartialSummary) {
  DistExploreOptions opt;
  opt.workers = 2;
  opt.steal_requests = false;
  opt.fault_first_job_after = 25;
  opt.job_retries = 0;  // the one lost attempt is already over budget
  auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  ASSERT_TRUE(dist.error.has_value());
  EXPECT_NE(dist.error->find("disconnected"), std::string::npos);
  EXPECT_FALSE(dist.exhausted);
}

TEST(DistFailure, EveryWorkerLostReturnsInsteadOfHanging) {
  DistExploreOptions opt;
  opt.workers = 1;
  opt.steal_requests = false;
  opt.fault_first_job_after = 25;  // the only worker dies; nobody can retry
  auto dist = dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  ASSERT_TRUE(dist.error.has_value());
  EXPECT_NE(dist.error->find("every worker disconnected"), std::string::npos);
  EXPECT_FALSE(dist.exhausted);
}

// --- cluster mode: `serve` workers on loopback listeners ---------------------

// Forks one worker per endpoint, each running a registry-world serve() on
// its own loopback listener, as `revisim_cli serve` does, until kShutdown
// or until no coordinator dials within `redial_window_ms`.  Only the child
// keeps its listener open, so an endpoint refuses connections once its
// worker is gone.  Fills `endpoints` with host:port.
std::vector<pid_t> fork_serve_workers(std::size_t n, int redial_window_ms,
                                      std::vector<std::string>& endpoints) {
  std::vector<int> listeners(n);
  std::vector<std::uint16_t> ports(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    listeners[i] = dist::listen_tcp("127.0.0.1", ports[i]);
  }
  std::vector<pid_t> kids;
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) {
          ::close(listeners[j]);
        }
      }
      try {
        dist::serve(listeners[i], nullptr, {}, {}, redial_window_ms);
      } catch (...) {
      }
      std::_Exit(0);
    }
    kids.push_back(pid);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ::close(listeners[i]);
    endpoints.push_back("127.0.0.1:" + std::to_string(ports[i]));
  }
  return kids;
}

void wait_all(const std::vector<pid_t>& kids) {
  for (const pid_t pid : kids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

check::CrashWorldSpec aug_bu_spec() {
  check::CrashWorldSpec spec;
  spec.world = "aug-bu";
  spec.f = 2;
  spec.m = 2;
  spec.step_budget = 6;
  return spec;
}

TEST(DistCluster, HelloShipsRegistryWorldToFactorylessWorker) {
  std::vector<std::string> endpoints;
  const std::vector<pid_t> kids =
      fork_serve_workers(1, /*redial_window_ms=*/0, endpoints);
  const check::CrashWorldSpec spec = aug_bu_spec();
  DistExploreOptions opt;
  opt.base.max_crashes = 1;
  auto serial =
      explore_schedules(check::make_crash_world_factory(spec), opt.base);
  ASSERT_GT(serial.executions, 1000u);
  auto dist = dist::dist_explore_remote(spec, endpoints, opt);
  wait_all(kids);
  expect_same(dist, serial, "cluster spec-shipping");
  EXPECT_FALSE(dist.error.has_value());
}

TEST(DistCluster, UnknownWorldIsRejectedAtHandshake) {
  std::vector<std::string> endpoints;
  const std::vector<pid_t> kids =
      fork_serve_workers(1, /*redial_window_ms=*/0, endpoints);
  check::CrashWorldSpec spec;
  spec.world = "no-such-world";
  DistExploreOptions opt;
  auto dist = dist::dist_explore_remote(spec, endpoints, opt);
  wait_all(kids);
  ASSERT_TRUE(dist.error.has_value());
  EXPECT_NE(dist.error->find("rejected the hello"), std::string::npos)
      << *dist.error;
  EXPECT_FALSE(dist.exhausted);
  EXPECT_EQ(dist.executions, 0u);
}

// An endpoint that refuses its first dial fails the run with a WireError
// naming it: a slot that never completed a handshake is not re-dialed.
TEST(DistCluster, RefusedFirstDialFailsNamingTheEndpoint) {
  // Grab an ephemeral port, then close the listener: dialing it is a
  // deterministic ECONNREFUSED.
  std::uint16_t port = 0;
  ::close(dist::listen_tcp("127.0.0.1", port));
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);
  DistExploreOptions opt;
  opt.base.max_crashes = 1;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)dist::dist_explore_remote(aug_bu_spec(), {endpoint}, opt);
    FAIL() << "a refused endpoint did not fail the run";
  } catch (const dist::WireError& e) {
    EXPECT_NE(std::string(e.what()).find(endpoint), std::string::npos)
        << e.what();
  }
  // Failing at once, not after the reconnect window (10 s by default).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            5'000);
}

// A port must be digits only: `host:12x` is refused, not dialed as port 12.
TEST(DistCluster, MalformedEndpointIsRejectedByName) {
  DistExploreOptions opt;
  for (const std::string bad :
       {"127.0.0.1:12x", "127.0.0.1:", "127.0.0.1", ":7421", "127.0.0.1:0",
        "127.0.0.1:65536", "127.0.0.1:+80", "127.0.0.1: 80"}) {
    try {
      (void)dist::dist_explore_remote(aug_bu_spec(), {bad}, opt);
      ADD_FAILURE() << "endpoint '" << bad << "' was accepted";
    } catch (const dist::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// A --connect endpoint that dies and stays down must not stall the rest of
// the cluster.  The coordinator re-dials it with non-blocking connects from
// its event loop, so the survivor keeps hearing heartbeats, takes the
// re-queued job and finishes the run, while the dead endpoint refuses every
// attempt until its window closes.  A re-dial that blocked the loop would
// outlast the survivor's heartbeat timeout and end its (one-shot) session.
TEST(DistCluster, LostEndpointDoesNotStallSurvivors) {
  std::vector<std::string> endpoints;
  const std::vector<pid_t> kids =
      fork_serve_workers(2, /*redial_window_ms=*/0, endpoints);
  ASSERT_EQ(kids.size(), 2u);
  const check::CrashWorldSpec spec = aug_bu_spec();
  DistExploreOptions opt;
  opt.base.max_crashes = 1;
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 300;
  opt.reconnect_window_ms = 3'000;  // 10x the survivor's timeout
  opt.fault_first_job_after = 25;   // the seed job's worker _Exit()s
  auto serial =
      explore_schedules(check::make_crash_world_factory(spec), opt.base);
  auto dist = dist::dist_explore_remote(spec, endpoints, opt);
  wait_all(kids);
  expect_same(dist, serial, "one endpoint lost for good");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

// A cut cluster connection whose endpoint stays up is re-dialed: the
// re-dial's hello carries the slot's session token, the fresh serve session
// echoes it, and the slot serves again.  The run then finishes on the same
// worker, bit-identical to serial.
TEST(DistCluster, CutConnectionIsRedialedUnderItsSessionToken) {
  std::vector<std::string> endpoints;
  const std::vector<pid_t> kids =
      fork_serve_workers(1, /*redial_window_ms=*/10'000, endpoints);
  ASSERT_EQ(kids.size(), 1u);
  const check::CrashWorldSpec spec = aug_bu_spec();
  DistExploreOptions opt;
  opt.base.max_crashes = 1;
  opt.coordinator_faults.cut_after = 2;  // the hello, then the seed job
  auto serial =
      explore_schedules(check::make_crash_world_factory(spec), opt.base);
  auto dist = dist::dist_explore_remote(spec, endpoints, opt);
  wait_all(kids);
  expect_same(dist, serial, "re-dialed after a cut");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

}  // namespace
}  // namespace revisim
