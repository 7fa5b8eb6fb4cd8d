// Fault tolerance of the distributed explorer: wire-level defenses
// (truncation, corruption, drops and duplicates caught at every byte
// boundary), the durable run journal and its checkpoint-resume planner,
// and the end-to-end fault matrix - every seeded fault plan must leave the
// merged summary bit-identical to the uninterrupted serial run.
//
// The e2e tests reuse dist_test.cpp's closed-form ScriptWorld: n processes
// perform fixed write counts, so the full tree has a multinomial number of
// leaves and the serial explorer's summary is the ground truth the faulted
// distributed runs are pinned against.  Faults are injected with seeded
// FaultPlans (src/dist/fault_channel.h): rate faults draw from a fixed
// xorshift stream, positional faults fire once per plan, so every run here
// is a deterministic drill, not a stress test.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/check/crash_worlds.h"
#include "src/check/explore_core.h"
#include "src/check/explore_merge.h"
#include "src/check/model_check.h"
#include "src/dist/coordinator.h"
#include "src/dist/fault_channel.h"
#include "src/dist/journal.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/runtime/scheduler.h"

namespace revisim {
namespace {

using check::ExplorableWorld;
using check::explore_schedules;
using check::ScheduleExploreResult;
using dist::DistExploreOptions;
using dist::FaultPlan;
using dist::Frame;
using dist::MsgType;
using dist::WireError;
using dist::WireWriter;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::StepKind;
using runtime::Task;

Task<void> count_script(Scheduler& sched, std::size_t obj,
                        std::vector<ProcessId>& order, ProcessId me,
                        std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched, [&order, me] { order.push_back(me); }, obj, StepKind::kWrite,
        {});
  }
}

// As in dist_test.cpp: process i performs writes[i] shared-register writes;
// the order log is folded into the fingerprint so dedupe stays sound.
class ScriptWorld final : public ExplorableWorld {
 public:
  explicit ScriptWorld(std::vector<std::size_t> writes) {
    const std::size_t shared = sched_.register_object("r");
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(count_script(sched_, shared, order_, p, writes[p]), "q");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool) override { return std::nullopt; }

  void fingerprint_extra(util::StateSink& sink) override {
    util::feed(sink, order_);
  }

 private:
  Scheduler sched_;
  std::vector<ProcessId> order_;
};

auto script_factory(std::vector<std::size_t> writes) {
  return [writes = std::move(writes)] {
    return std::make_unique<ScriptWorld>(writes);
  };
}

Task<void> gate_script(Scheduler& sched, std::size_t obj,
                       std::vector<ProcessId>& order, ProcessId me,
                       std::size_t writes) {
  co_await runtime::StepAwaiter<void>(
      sched, [&order, me] { order.push_back(me); }, obj, StepKind::kWrite,
      {});
  if (order.front() != 0) {
    co_return;
  }
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched, [&order, me] { order.push_back(me); }, obj, StepKind::kWrite,
        {});
  }
}

// The first process to move decides the run.  If it is p0, every process
// goes on to `writes` more shared writes: the seed job's region is large.
// Any other first mover ends the run after each process's one gate step,
// so the root's later children form a tiny region that a steal request
// donates early.  A complete execution whose first mover is `planted`
// violates.  The order log is folded into the fingerprint, so every state
// is distinct and a sound dedupe prunes nothing at all.
class GateWorld final : public ExplorableWorld {
 public:
  GateWorld(std::size_t procs, std::size_t writes, ProcessId planted)
      : planted_(planted) {
    const std::size_t shared = sched_.register_object("r");
    for (ProcessId p = 0; p < procs; ++p) {
      sched_.spawn(gate_script(sched_, shared, order_, p, writes), "q");
    }
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete && order_.front() == planted_) {
      return "planted violation";
    }
    return std::nullopt;
  }

  void fingerprint_extra(util::StateSink& sink) override {
    util::feed(sink, order_);
  }

 private:
  Scheduler sched_;
  std::vector<ProcessId> order_;
  ProcessId planted_;
};

void expect_same(const ScheduleExploreResult& got,
                 const ScheduleExploreResult& want, const std::string& what) {
  EXPECT_EQ(got.executions, want.executions) << what;
  EXPECT_EQ(got.exhausted, want.exhausted) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.witness, want.witness) << what;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dist_fault_" + name + "." +
         std::to_string(::getpid());
}

// Baseline options every fault drill shares: tight heartbeats so detection
// latency does not dominate the test, a generous retry budget so recovery
// (not degradation) is what gets exercised.
DistExploreOptions drill_options() {
  DistExploreOptions opt;
  opt.workers = 2;
  opt.job_retries = 8;
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 3000;
  opt.reconnect_window_ms = 10'000;
  return opt;
}

// --- the wire-message table --------------------------------------------------

struct WireCase {
  const char* name;
  MsgType type;
  WireWriter body;  // encoded payload
};

std::vector<WireCase> wire_cases() {
  std::vector<WireCase> cases;
  auto add = [&cases](const char* name, MsgType type, auto encode) {
    cases.emplace_back();
    cases.back().name = name;
    cases.back().type = type;
    encode(cases.back().body);
  };
  add("hello", MsgType::kHello, [](WireWriter& w) {
    dist::HelloMsg m;
    m.worker = 3;
    m.session = 0x1122334455ull;
    m.heartbeat_interval_ms = 25;
    m.heartbeat_timeout_ms = 500;
    m.options.max_steps = 64;
    m.world = "aug-bu";
    m.f = 2;
    m.m = 2;
    m.step_budget = 6;
    dist::encode_hello(w, m);
  });
  add("hello_ack", MsgType::kHelloAck, [](WireWriter& w) {
    dist::HelloAckMsg m;
    m.ok = false;
    m.error = "unknown world";
    m.session = 42;
    dist::encode_hello_ack(w, m);
  });
  add("job", MsgType::kJob, [](WireWriter& w) {
    dist::JobMsg m;
    m.id = 7;
    m.budget = 1000;
    m.region.prefix = {0, 1, runtime::make_crash_entry(2)};
    m.region.choices = {1, 2};
    m.region.sleep = {0};
    m.region.sleep_inherited = 1;
    m.no_dedupe = true;
    dist::encode_job(w, m);
  });
  add("job_result", MsgType::kJobResult, [](WireWriter& w) {
    dist::JobResultMsg m;
    m.id = 7;
    m.result.executions = 99;
    m.result.fully_explored = true;
    m.result.violation = "planted";
    m.result.witness = {0, 1, 0};
    dist::encode_job_result(w, m);
  });
  add("job_error", MsgType::kJobError, [](WireWriter& w) {
    dist::encode_job_error(w, {7, "replay diverged"});
  });
  add("live", MsgType::kLive, [](WireWriter& w) {
    dist::encode_live(w, {7, 1234});
  });
  add("donate", MsgType::kDonate, [](WireWriter& w) {
    dist::DonateMsg m;
    m.parent = 7;
    m.region.prefix = {0, 0};
    m.region.choices = {1, 2};
    m.region.sleep = {0};
    m.region.sleep_inherited = 0;
    dist::encode_donate(w, m);
  });
  add("credit", MsgType::kCredit, [](WireWriter& w) {
    dist::encode_credit(w, {7, 500, true});
  });
  add("steal_req", MsgType::kStealReq, [](WireWriter&) {});
  add("fp_batch", MsgType::kFpBatch, [](WireWriter& w) {
    dist::FpBatchMsg m;
    m.fps = {util::Fingerprint{0x0123456789abcdefull, 0xfedcba9876543210ull},
             util::Fingerprint{0x1111111111111111ull, 0x2222222222222222ull},
             util::Fingerprint{0xdeadbeefcafef00dull, 0x0badc0dedeadc0deull}};
    m.has_canonical = true;
    m.canonicals = {"state a", "state b", "state c"};
    dist::encode_fp_batch(w, m);
  });
  add("shutdown", MsgType::kShutdown, [](WireWriter&) {});
  add("ping", MsgType::kPing, [](WireWriter& w) {
    dist::encode_ping(w, {0xabcdefull});
  });
  add("pong", MsgType::kPong, [](WireWriter& w) {
    dist::encode_pong(w, {0xabcdefull});
  });
  return cases;
}

// Writes exactly `bytes` into one end of a socketpair, EOFs it, and
// adopts the other end into a receiving Channel.
void feed(dist::Channel& rx, const std::vector<std::uint8_t>& bytes) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  ASSERT_EQ(::write(sv[0], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(sv[0]);
  rx.adopt(sv[1]);
}

// Feeds exactly `bytes` to a Channel and EOFs the stream, then receives
// one frame through buffered_recv.  0 = clean EOF, 1 = frame,
// 2 = WireError, 3 = "nothing yet" (never right: the whole stream and its
// EOF are already in the socket).
int recv_outcome(const std::vector<std::uint8_t>& bytes) {
  dist::Channel rx;
  feed(rx, bytes);
  Frame frame;
  try {
    switch (rx.buffered_recv(frame)) {
      case 1: return 1;
      case -1: return 0;
      default: return 3;
    }
  } catch (const WireError&) {
    return 2;
  }
}

std::vector<std::uint8_t> framed(MsgType type, const WireWriter& body,
                                 std::uint32_t seq) {
  std::vector<std::uint8_t> bytes;
  dist::append_frame(bytes, type, body, seq);
  return bytes;
}

// Satellite: every wire message, truncated at EVERY byte boundary, must be
// rejected with a clean WireError - mid-header, mid-payload, mid-crc, all
// of it.  Truncation at offset zero is the one legal cut: a clean EOF at a
// frame boundary.
TEST(WireTruncation, EveryMessageAtEveryByteBoundary) {
  for (const WireCase& c : wire_cases()) {
    const std::vector<std::uint8_t> full = framed(c.type, c.body, 0);
    ASSERT_GE(full.size(), dist::kFrameHeaderBytes) << c.name;
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(full.begin(),
                                             full.begin() + cut);
      const int outcome = recv_outcome(prefix);
      if (cut == 0) {
        EXPECT_EQ(outcome, 0) << c.name << " cut=0";
      } else {
        EXPECT_EQ(outcome, 2) << c.name << " cut=" << cut;
      }
    }
    EXPECT_EQ(recv_outcome(full), 1) << c.name << " intact";
  }
}

// The payload decoders reject truncation on their own (the journal hands
// them raw payloads without the framing crc): every proper prefix of every
// message payload must throw, never misparse.
TEST(WireTruncation, EveryPayloadPrefixThrowsAtDecode) {
  for (const WireCase& c : wire_cases()) {
    for (std::size_t cut = 0; cut < c.body.size(); ++cut) {
      dist::WireReader r(c.body.data(), cut);
      const auto decode_any = [&r, &c]() {
        switch (c.type) {
          case MsgType::kHello: (void)dist::decode_hello(r); break;
          case MsgType::kHelloAck: (void)dist::decode_hello_ack(r); break;
          case MsgType::kJob: (void)dist::decode_job(r); break;
          case MsgType::kJobResult: (void)dist::decode_job_result(r); break;
          case MsgType::kJobError: (void)dist::decode_job_error(r); break;
          case MsgType::kLive: (void)dist::decode_live(r); break;
          case MsgType::kDonate: (void)dist::decode_donate(r); break;
          case MsgType::kCredit: (void)dist::decode_credit(r); break;
          case MsgType::kFpBatch: (void)dist::decode_fp_batch(r); break;
          case MsgType::kPing: (void)dist::decode_ping(r); break;
          case MsgType::kPong: (void)dist::decode_pong(r); break;
          default: throw WireError("empty-payload message");
        }
      };
      EXPECT_THROW(decode_any(), WireError)
          << c.name << " payload cut=" << cut;
    }
  }
}

TEST(WireFraming, CorruptedByteFailsCrc) {
  WireWriter body;
  dist::encode_live(body, {7, 1234});
  const std::vector<std::uint8_t> bytes = framed(MsgType::kLive, body, 0);
  for (std::size_t i = dist::kFrameHeaderBytes; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_EQ(recv_outcome(bad), 2) << "flipped payload byte " << i;
  }
}

TEST(WireFraming, SequenceGapAndRepeatAreWireErrors) {
  WireWriter body;
  dist::encode_live(body, {7, 1});
  // A dropped frame shows as a gap: the peer sent seq 2, we expected 0.
  Frame frame;
  {
    dist::Channel rx;
    feed(rx, framed(MsgType::kLive, body, 2));
    EXPECT_THROW((void)rx.buffered_recv(frame), WireError);
  }

  // A duplicated frame shows as a repeat of the last sequence number: the
  // channel expects seq 1 after receiving seq 0.
  {
    std::vector<std::uint8_t> twice = framed(MsgType::kLive, body, 0);
    dist::append_frame(twice, MsgType::kLive, body, 0);
    dist::Channel rx;
    feed(rx, twice);
    EXPECT_EQ(rx.buffered_recv(frame), 1);
    EXPECT_THROW((void)rx.buffered_recv(frame), WireError);
  }
}

TEST(WireFraming, OversizedLengthIsRejectedNotAllocated) {
  std::vector<std::uint8_t> header(dist::kFrameHeaderBytes, 0);
  header[0] = 0xff;  // little-endian length 0xffffffff
  header[1] = 0xff;
  header[2] = 0xff;
  header[3] = 0xff;
  header[4] = static_cast<std::uint8_t>(MsgType::kLive);
  EXPECT_EQ(recv_outcome(header), 2);
}

// --- fingerprint report frames ------------------------------------------------

TEST(WireFpPipeline, BatchRoundTripsWithAndWithoutCanonicals) {
  dist::FpBatchMsg m;
  m.fps = {util::Fingerprint{1, 2}, util::Fingerprint{3, 4},
           util::Fingerprint{0xffffffffffffffffull, 0}};
  {
    WireWriter w;
    dist::encode_fp_batch(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::FpBatchMsg got = dist::decode_fp_batch(r);
    EXPECT_EQ(got.fps, m.fps);
    EXPECT_FALSE(got.has_canonical);
    EXPECT_TRUE(got.canonicals.empty());
  }
  m.has_canonical = true;
  m.canonicals = {"alpha", "", "gamma"};
  {
    WireWriter w;
    dist::encode_fp_batch(w, m);
    dist::WireReader r(w.data(), w.size());
    const dist::FpBatchMsg got = dist::decode_fp_batch(r);
    EXPECT_EQ(got.fps, m.fps);
    EXPECT_TRUE(got.has_canonical);
    EXPECT_EQ(got.canonicals, m.canonicals);
  }
}

// A canonical list whose length disagrees with the batch must be rejected
// on BOTH sides of the wire - a malformed report dies loudly, never
// misaudits.
TEST(WireFpPipeline, LengthMismatchesAreRejectedBothWays) {
  dist::FpBatchMsg batch;
  batch.fps = {util::Fingerprint{1, 2}, util::Fingerprint{3, 4}};
  batch.has_canonical = true;
  batch.canonicals = {"only one"};
  WireWriter w;
  EXPECT_THROW(dist::encode_fp_batch(w, batch), WireError);

  // Decode side: a frame that flags audit texts but carries one text for
  // two fingerprints.
  WireWriter w2;
  w2.u32(2);
  w2.fingerprint(batch.fps[0]);
  w2.fingerprint(batch.fps[1]);
  w2.u8(1);
  w2.str("only one");
  dist::WireReader r(w2.data(), w2.size());
  EXPECT_THROW((void)dist::decode_fp_batch(r), WireError);
}

// --- run journal -------------------------------------------------------------

dist::JournalConfig test_config() {
  dist::JournalConfig cfg;
  cfg.tag = "script-332";
  cfg.max_steps = 64;
  cfg.max_executions = 100'000;
  cfg.max_crashes = 0;
  return cfg;
}

TEST(Journal, RoundTripsCreatedDoneAndDiscardedRecords) {
  const std::string path = temp_path("roundtrip");
  {
    dist::JournalWriter w;
    w.create(path, test_config());
    w.job_created(1, false, 0, {{0, 1}, {}, {}, 0});
    w.job_created(2, true, 1, {{0, 1, 2}, {1, 2}, {0}, 1});
    check::detail::SubtreeResult res;
    res.executions = 17;
    res.fully_explored = true;
    res.violation = "planted";
    res.witness = {0, 1, 1};
    w.job_done(2, res);
    w.job_discarded(1);
    w.close();
  }
  const dist::JournalContents j = dist::read_journal(path);
  EXPECT_EQ(j.config, test_config());
  EXPECT_EQ(j.dropped_tail_bytes, 0u);
  ASSERT_EQ(j.jobs.size(), 2u);
  EXPECT_EQ(j.jobs[0].id, 1u);
  EXPECT_FALSE(j.jobs[0].has_parent);
  EXPECT_TRUE(j.jobs[0].discarded);
  EXPECT_FALSE(j.jobs[0].done);
  EXPECT_EQ(j.jobs[1].id, 2u);
  EXPECT_TRUE(j.jobs[1].has_parent);
  EXPECT_EQ(j.jobs[1].parent, 1u);
  EXPECT_EQ(j.jobs[1].region.prefix, (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_EQ(j.jobs[1].region.choices, (std::vector<ProcessId>{1, 2}));
  EXPECT_EQ(j.jobs[1].region.sleep_inherited, 1u);
  ASSERT_TRUE(j.jobs[1].done);
  EXPECT_EQ(j.jobs[1].result.executions, 17u);
  EXPECT_EQ(j.jobs[1].result.violation, "planted");
  EXPECT_EQ(j.jobs[1].result.witness, (std::vector<ProcessId>{0, 1, 1}));
  std::remove(path.c_str());
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// A crash can tear the journal at any byte.  Every cut after the config
// record must load cleanly with the torn tail dropped; every cut before it
// is not a usable journal and must say so with a WireError, never a crash
// or a misparse.
TEST(Journal, TornTailAtEveryByteBoundary) {
  const std::string path = temp_path("torn");
  std::size_t config_end;
  {
    dist::JournalWriter w;
    w.create(path, test_config());
    w.close();
    config_end = slurp(path).size();
  }
  {
    dist::JournalWriter w;
    w.append_to(path);
    w.job_created(1, false, 0, {{}, {}, {}, 0});
    w.job_created(2, true, 1, {{0}, {1}, {}, 0});
    check::detail::SubtreeResult res;
    res.executions = 5;
    res.fully_explored = true;
    w.job_done(1, res);
    w.close();
  }
  const std::vector<std::uint8_t> full = slurp(path);
  const dist::JournalContents whole = dist::read_journal(path);
  ASSERT_EQ(whole.jobs.size(), 2u);

  const std::string torn = temp_path("torn_cut");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(torn, std::vector<std::uint8_t>(full.begin(), full.begin() + cut));
    if (cut < config_end) {
      EXPECT_THROW((void)dist::read_journal(torn), WireError) << "cut=" << cut;
      continue;
    }
    dist::JournalContents j;
    ASSERT_NO_THROW(j = dist::read_journal(torn)) << "cut=" << cut;
    EXPECT_EQ(j.config, test_config()) << "cut=" << cut;
    EXPECT_LE(j.jobs.size(), whole.jobs.size()) << "cut=" << cut;
    // Whatever survived the tear is a prefix of the record stream: job 2
    // can only exist if job 1 does, done only if the done record fit.
    if (!j.jobs.empty()) {
      EXPECT_EQ(j.jobs[0].id, 1u) << "cut=" << cut;
    }
    if (j.jobs.size() == 2) {
      EXPECT_EQ(j.jobs[1].id, 2u) << "cut=" << cut;
    }
    // The drop never reaches past the config record, and a full-file read
    // drops nothing.
    EXPECT_LE(j.dropped_tail_bytes, cut - config_end) << "cut=" << cut;
    if (cut == full.size()) {
      EXPECT_EQ(j.dropped_tail_bytes, 0u);
    }
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

// A flipped byte mid-file fails that record's crc; the journal loads as if
// torn there - everything before the corruption survives.
TEST(Journal, MidFileCorruptionDropsFromThatRecordOn) {
  const std::string path = temp_path("corrupt");
  std::size_t first_record_end;
  {
    dist::JournalWriter w;
    w.create(path, test_config());
    w.job_created(1, false, 0, {{0, 1}, {}, {}, 0});
    w.close();
    first_record_end = slurp(path).size();
  }
  {
    dist::JournalWriter w;
    w.append_to(path);
    w.job_created(2, true, 1, {{0, 1, 0}, {1}, {}, 0});
    check::detail::SubtreeResult res;
    res.executions = 3;
    res.fully_explored = true;
    w.job_done(2, res);
    w.close();
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  ASSERT_GT(bytes.size(), first_record_end + 6);
  bytes[first_record_end + 6] ^= 0x01;  // inside job 2's created record
  spit(path, bytes);
  const dist::JournalContents j = dist::read_journal(path);
  ASSERT_EQ(j.jobs.size(), 1u);
  EXPECT_EQ(j.jobs[0].id, 1u);
  EXPECT_GT(j.dropped_tail_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Journal, DoneForUnknownJobIsStructuralCorruption) {
  const std::string path = temp_path("unknown_done");
  {
    dist::JournalWriter w;
    w.create(path, test_config());
    check::detail::SubtreeResult res;
    res.fully_explored = true;
    w.job_done(99, res);  // no created record for 99
    w.close();
  }
  EXPECT_THROW((void)dist::read_journal(path), WireError);
  std::remove(path.c_str());
}

// The magic's last byte is the layout version; kDone records of another
// version encode a different SubtreeResult summary, so such a journal is
// refused by name instead of misparsed.
TEST(Journal, OtherLayoutVersionIsRefusedByName) {
  const std::string path = temp_path("old_version");
  {
    dist::JournalWriter w;
    w.create(path, test_config());
    w.close();
  }
  std::vector<std::uint8_t> bytes = slurp(path);
  ASSERT_EQ(bytes[7], '3');
  bytes[7] = '2';
  spit(path, bytes);
  try {
    (void)dist::read_journal(path);
    ADD_FAILURE() << "a layout-2 journal was accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("layout version 2, this binary "
                                         "reads 3"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- resume planner ----------------------------------------------------------

using check::detail::plan_resume;
using check::detail::ResumeAction;
using check::detail::ResumeJob;

TEST(ResumePlan, AllDoneReusesEverything) {
  const std::vector<ResumeJob> jobs = {
      {1, false, 0, true}, {2, true, 1, true}, {3, true, 2, true}};
  const auto plan = plan_resume(jobs);
  EXPECT_EQ(plan, (std::vector<ResumeAction>{ResumeAction::kReuse,
                                             ResumeAction::kReuse,
                                             ResumeAction::kReuse}));
}

TEST(ResumePlan, UndoneParentRerunsAndDiscardsDescendants) {
  // 1 (done) -> 2 (NOT done) -> 3 (done), plus 4 done directly under 1.
  // 2 re-runs its full original region, which re-covers 3; reusing 3 too
  // would double count it.
  const std::vector<ResumeJob> jobs = {{1, false, 0, true},
                                       {2, true, 1, false},
                                       {3, true, 2, true},
                                       {4, true, 1, true}};
  const auto plan = plan_resume(jobs);
  EXPECT_EQ(plan, (std::vector<ResumeAction>{
                      ResumeAction::kReuse, ResumeAction::kRerun,
                      ResumeAction::kDiscard, ResumeAction::kReuse}));
}

TEST(ResumePlan, UndoneRootRerunsWholeTree) {
  const std::vector<ResumeJob> jobs = {
      {1, false, 0, false}, {2, true, 1, true}, {3, true, 2, false}};
  const auto plan = plan_resume(jobs);
  EXPECT_EQ(plan, (std::vector<ResumeAction>{ResumeAction::kRerun,
                                             ResumeAction::kDiscard,
                                             ResumeAction::kDiscard}));
}

TEST(ResumePlan, OrphanParentIsConservativelyDiscarded) {
  // Parent id 77 matches nothing - corruption an append-only journal
  // cannot produce, but the planner must not double count on it.
  const std::vector<ResumeJob> jobs = {{1, false, 0, true},
                                       {2, true, 77, true}};
  const auto plan = plan_resume(jobs);
  EXPECT_EQ(plan, (std::vector<ResumeAction>{ResumeAction::kReuse,
                                             ResumeAction::kDiscard}));
}

// --- end-to-end fault matrix -------------------------------------------------
//
// Each drill pins the faulted distributed run bit-for-bit against the
// serial explorer.  {3,3,2} has 8!/(3!3!2!) = 560 leaves - big enough that
// every fault lands mid-run, small enough to keep the matrix fast.

class FaultMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    serial_ = explore_schedules(script_factory({3, 3, 2}));
    ASSERT_TRUE(serial_.exhausted);
  }
  ScheduleExploreResult serial_;
};

TEST_F(FaultMatrix, WorkerOutboundCutRecoversByReconnect) {
  DistExploreOptions opt = drill_options();
  opt.worker_faults.cut_after = 4;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "cut_after=4");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, TruncatedFrameDetectedAndRecovered) {
  DistExploreOptions opt = drill_options();
  opt.worker_faults.truncate_at = 4;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "truncate_at=4");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, DroppedFramesDetectedBySequenceGap) {
  DistExploreOptions opt = drill_options();
  opt.worker_faults.seed = 9;
  opt.worker_faults.drop_rate = 0.10;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "drop_rate=0.10");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, DuplicatedFramesDetectedBySequenceRepeat) {
  DistExploreOptions opt = drill_options();
  opt.worker_faults.seed = 11;
  opt.worker_faults.dup_rate = 0.10;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "dup_rate=0.10");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, DelayShorterThanTimeoutIsSurvivedInPlace) {
  DistExploreOptions opt = drill_options();
  opt.worker_faults.seed = 13;
  opt.worker_faults.delay_rate = 0.25;
  opt.worker_faults.delay_ms = 5;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "delay 5ms");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, CoordinatorOutboundCutRecovers) {
  DistExploreOptions opt = drill_options();
  opt.coordinator_faults.cut_after = 4;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "coordinator cut_after=4");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, OneWayPartitionDetectedByHeartbeatTimeout) {
  DistExploreOptions opt = drill_options();
  opt.heartbeat_timeout_ms = 400;  // a partition stalls the run this long
  opt.worker_faults.partition_after = 3;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "partition_after=3");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, StallPastTimeoutIsDeclaredDeadThenRecovers) {
  DistExploreOptions opt = drill_options();
  opt.heartbeat_timeout_ms = 300;
  opt.worker_faults.stall_at = 3;
  opt.worker_faults.stall_ms = 1500;  // > timeout: indistinguishable from hang
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "stall 1500ms > timeout 300ms");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

TEST_F(FaultMatrix, HeartbeatsOffStillMatchesSerial) {
  DistExploreOptions opt = drill_options();
  opt.heartbeat_interval_ms = 0;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  expect_same(dist, serial_, "heartbeats off");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
}

// With dedupe on, a lost attempt re-queues with dedupe OFF: worker tables
// may hold states of the cancelled walk, so the re-run (and every region
// it donates) walks unpruned.  The run completes with the serial verdict
// and states_seen stays bounded by the serial distinct-state count.
TEST_F(FaultMatrix, DedupeLostAttemptRequeuesWithDedupeOff) {
  check::ScheduleExploreOptions serial_opt;
  serial_opt.dedupe_states = true;
  const auto serial_dedupe =
      explore_schedules(script_factory({3, 3, 2}), serial_opt);
  ASSERT_TRUE(serial_dedupe.exhausted);

  DistExploreOptions opt = drill_options();
  opt.base.dedupe_states = true;
  opt.steal_requests = false;  // single seed job: the cut always hits it
  opt.worker_faults.cut_after = 3;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
  EXPECT_TRUE(dist.exhausted);
  EXPECT_EQ(dist.violation, serial_dedupe.violation);
  EXPECT_EQ(dist.witness, serial_dedupe.witness);
  EXPECT_LE(dist.states_seen, serial_dedupe.states_seen);
}

// The same drill with the cut landing while report frames are in flight.
// {3,3,3} has 5,247 distinct states below the root, so the seed job sends
// one full kFpBatch mid-walk and the rest before its result.  With one
// worker, no heartbeats and no live counters, its frames are exactly:
// hello-ack, full report, final report, job result.  Cut 2 lands right
// after the mid-walk report, cut 3 right after the final one (the result
// is lost).  Either way the coordinator has folded in sightings of a walk
// that will never be merged.  The re-dialed worker starts a fresh session
// with an empty table, so this drill does not reach a table holding the
// cancelled walk's states (DedupeRequeueNeverPrunesIntoACancelledDonation
// does, through a surviving worker); it still pins that the re-queue walks
// the whole tree: every state is distinct, so any prune would be a lost
// region.
TEST_F(FaultMatrix, DedupeMidBatchCutRequeuesSoundly) {
  check::ScheduleExploreOptions serial_opt;
  serial_opt.dedupe_states = true;
  const auto serial_dedupe =
      explore_schedules(script_factory({3, 3, 3}), serial_opt);
  ASSERT_TRUE(serial_dedupe.exhausted);
  ASSERT_EQ(serial_dedupe.states_seen, 5'247u);

  for (const std::uint64_t cut : {std::uint64_t{2}, std::uint64_t{3}}) {
    DistExploreOptions opt = drill_options();
    opt.workers = 1;
    opt.base.dedupe_states = true;
    opt.heartbeat_interval_ms = 0;
    opt.live_interval = std::uint64_t{1} << 40;
    opt.worker_faults.cut_after = cut;
    const auto dist =
        dist::dist_explore_schedules(script_factory({3, 3, 3}), opt);
    EXPECT_FALSE(dist.error.has_value()) << "cut=" << cut << ": "
                                         << *dist.error;
    expect_same(dist, serial_dedupe, "cut=" + std::to_string(cut));
    // The full report landed before the cut; the dedupe-off re-run
    // reports nothing, so the count stays a lower bound.
    EXPECT_GE(dist.states_seen, dist::kFpBatchSize) << "cut=" << cut;
    EXPECT_LE(dist.states_seen, serial_dedupe.states_seen) << "cut=" << cut;
  }
}

// Why the re-queue must run with dedupe off.  The seed job donates the
// root's tiny later children - the planted violation among them - to the
// other worker, which walks them into its table and reports the violation.
// Then the seed job's worker dies, so the re-queue cancels that donation
// and re-runs the whole tree on the survivor.  A deduped re-run there
// would prune at every state of the cancelled donation, and no merged
// record would cover the violation.
TEST_F(FaultMatrix, DedupeRequeueNeverPrunesIntoACancelledDonation) {
  const auto factory = [] { return std::make_unique<GateWorld>(3, 2, 1); };
  check::ScheduleExploreOptions serial_opt;
  serial_opt.dedupe_states = true;
  const auto serial_dedupe = explore_schedules(factory, serial_opt);
  ASSERT_TRUE(serial_dedupe.violation.has_value());

  DistExploreOptions opt = drill_options();
  opt.base.dedupe_states = true;
  opt.fault_first_job_after = 100;  // the seed job's region is 560 leaves
  const auto dist = dist::dist_explore_schedules(factory, opt);
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
  expect_same(dist, serial_dedupe, "seed worker lost after donating");
}

// --- checkpoint-resume, end to end -------------------------------------------

TEST_F(FaultMatrix, HaltedRunResumesBitIdenticalAcrossWorkerCounts) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string path =
        temp_path("resume_w" + std::to_string(workers));
    DistExploreOptions opt = drill_options();
    opt.workers = workers;
    opt.journal_path = path;
    opt.journal_tag = "script-332";
    opt.halt_after_jobs = 1;  // stop at the first completion, like a kill
    const auto halted =
        dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);

    DistExploreOptions resume = drill_options();
    resume.workers = workers;
    resume.journal_path = path;
    resume.journal_tag = "script-332";
    resume.resume = true;
    const auto dist =
        dist::dist_explore_schedules(script_factory({3, 3, 2}), resume);
    expect_same(dist, serial_,
                "resume at " + std::to_string(workers) + " worker(s)");
    EXPECT_FALSE(dist.error.has_value()) << *dist.error;
    // The halted run either got cut short (the interesting case) or the
    // halt landed at the natural end (a 1-worker donation-free run); both
    // must resume to the identical summary, asserted above.
    if (halted.error.has_value()) {
      EXPECT_NE(halted.error->find("halted"), std::string::npos);
    }
    std::remove(path.c_str());
  }
}

TEST_F(FaultMatrix, ResumeUnderFaultsStillMatchesSerial) {
  const std::string path = temp_path("resume_faulted");
  DistExploreOptions opt = drill_options();
  opt.journal_path = path;
  opt.journal_tag = "script-332";
  opt.halt_after_jobs = 1;
  (void)dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);

  DistExploreOptions resume = drill_options();
  resume.journal_path = path;
  resume.journal_tag = "script-332";
  resume.resume = true;
  resume.worker_faults.seed = 21;
  resume.worker_faults.drop_rate = 0.10;
  const auto dist =
      dist::dist_explore_schedules(script_factory({3, 3, 2}), resume);
  expect_same(dist, serial_, "resume with drops");
  EXPECT_FALSE(dist.error.has_value()) << *dist.error;
  std::remove(path.c_str());
}

TEST_F(FaultMatrix, ResumeRefusesAJournalFromDifferentOptions) {
  const std::string path = temp_path("resume_mismatch");
  DistExploreOptions opt = drill_options();
  opt.workers = 1;
  opt.journal_path = path;
  opt.journal_tag = "script-332";
  opt.halt_after_jobs = 1;
  (void)dist::dist_explore_schedules(script_factory({3, 3, 2}), opt);

  DistExploreOptions resume = drill_options();
  resume.workers = 1;
  resume.reconnect_window_ms = 0;  // fail fast: no reconnect dance on throw
  resume.journal_path = path;
  resume.journal_tag = "script-332";
  resume.resume = true;
  resume.base.por = true;  // not what the journal was recorded under
  EXPECT_THROW((void)dist::dist_explore_schedules(script_factory({3, 3, 2}),
                                                  resume),
               WireError);
  std::remove(path.c_str());
}

// --- TCP helpers -------------------------------------------------------------

volatile sig_atomic_t g_alarms = 0;
void count_alarm(int) { g_alarms = g_alarms + 1; }

// Satellite regression: wait_readable under a signal storm must honor its
// monotonic deadline - EINTR re-polls with the REMAINING time, so 50ms
// SIGALRMs cannot keep pushing a 400ms timeout forever.
TEST(Tcp, WaitReadableSurvivesSignalStorm) {
  int pipefd[2];
  ASSERT_EQ(0, ::pipe(pipefd));

  struct sigaction sa {};
  sa.sa_handler = count_alarm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll really sees EINTR
  struct sigaction old {};
  ASSERT_EQ(0, sigaction(SIGALRM, &sa, &old));
  itimerval storm{};
  storm.it_interval.tv_usec = 50'000;
  storm.it_value.tv_usec = 50'000;
  ASSERT_EQ(0, setitimer(ITIMER_REAL, &storm, nullptr));

  const auto start = std::chrono::steady_clock::now();
  const bool readable = dist::wait_readable(pipefd[0], 400);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &old, nullptr);
  ::close(pipefd[0]);
  ::close(pipefd[1]);

  EXPECT_FALSE(readable);
  EXPECT_GE(g_alarms, 2) << "storm never fired; test proves nothing";
  EXPECT_GE(elapsed.count(), 350);
  EXPECT_LT(elapsed.count(), 2000) << "EINTR restarted the full timeout";
}

}  // namespace
}  // namespace revisim
