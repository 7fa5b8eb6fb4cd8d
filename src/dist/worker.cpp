#include "src/dist/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <unistd.h>
#include <utility>
#include <vector>

#include "src/check/crash_worlds.h"
#include "src/check/explore_core.h"
#include "src/check/state_table.h"
#include "src/dist/log.h"
#include "src/dist/wire.h"

namespace revisim::dist {
namespace {

using check::ExplorableWorld;
using Clock = std::chrono::steady_clock;
using runtime::ProcessId;

// One coordinator session, which is one connection: the channel (socket +
// framing state), the reused serialization buffers, and the control flags
// the message pump feeds into the running job.
struct Session {
  Channel ch;
  WireWriter out;  // one buffer per session; cleared per message
  Frame in;        // receive buffer, likewise reused
  Log* log = nullptr;

  HelloMsg hello;
  Clock::time_point last_heard{};

  std::uint64_t job_id = 0;
  std::atomic<std::uint64_t> live{0};    // executions of the current job
  std::atomic<std::uint64_t> budget{0};  // shrunk by kCredit messages
  bool abort_job = false;                // kCredit abort / shutdown
  bool steal_wanted = false;             // kStealReq pending, cleared on donate
  bool shutdown = false;
};

bool handle_control(Session& s, const Frame& f);

// The abort probe runs after every execution, and a recv syscall each time
// costs more than a small-step execution does (the socket is empty almost
// always).  Draining every 16th probe keeps steal-request and credit
// latency at a few executions while cutting the syscall rate - the toll
// the dist-workers-2 vs parallel-2 smoke gate bounds.
constexpr std::uint64_t kProbeInterval = 16;

// Coordinator silence past the heartbeat timeout means the connection is
// dead even though the socket looks healthy (hang, one-way partition).
void check_liveness(Session& s) {
  if (s.hello.heartbeat_interval_ms == 0) {
    return;
  }
  const auto silent = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - s.last_heard);
  if (silent.count() >= s.hello.heartbeat_timeout_ms) {
    throw WireError("heartbeat timeout: coordinator silent for " +
                    std::to_string(silent.count()) + "ms");
  }
}

// Poll granularity while waiting on the socket with heartbeats armed:
// fine enough to notice a timeout promptly, coarse enough not to spin.
int liveness_tick_ms(const Session& s) {
  const std::uint32_t hb = s.hello.heartbeat_interval_ms;
  return static_cast<int>(std::min<std::uint32_t>(
      std::max<std::uint32_t>(hb / 2, 10), 200));
}

// Next frame into s.in: 1 = frame, 0 = none within `timeout_ms` (-1 =
// wait forever), -1 = EOF at a frame boundary.  Throws WireError on a
// broken stream.
int next_frame(Session& s, int timeout_ms) {
  int got = s.ch.buffered_recv(s.in);
  while (got == 0 && timeout_ms != 0 && s.ch.wait(timeout_ms)) {
    got = s.ch.buffered_recv(s.in);
  }
  if (got > 0) {
    s.last_heard = Clock::now();
  }
  return got;
}

// Drains every frame already buffered or queued on the socket without
// blocking, then checks the coordinator's liveness deadline.
void pump(Session& s) {
  for (int got = next_frame(s, 0); got != 0; got = next_frame(s, 0)) {
    if (got < 0) {
      throw WireError("coordinator closed the connection");
    }
    if (!handle_control(s, s.in)) {
      throw WireError("unexpected frame type " +
                      std::to_string(static_cast<int>(s.in.type)) +
                      " during a job");
    }
  }
  check_liveness(s);
}

// Worker-side visited-state store: the session's own StateTable, consulted
// claim-then-walk exactly as the in-process engine does at one thread, so
// the walk never waits on the wire and a worker prunes only states it has
// walked or is walking itself (cross-worker duplicates are walked twice -
// an overcount, never a lost region).  Audit mode runs the table with
// audit on, so local hits are cross-checked too.
//
// First sightings are also reported one way to the coordinator in kFpBatch
// frames of kFpBatchSize fingerprints, flushed before every job result:
// the coordinator folds them into one table, which keeps `states_seen` an
// exact distinct-state count across workers and extends the collision
// audit across them.  Reports still queued when the connection dies are
// lost with the session.
class ReportingStore final : public check::StateStore {
 public:
  explicit ReportingStore(Session& session)
      : session_(session),
        local_(check::StateTable::Options{.audit = session.hello.options.dedupe_audit}) {
    batch_.has_canonical = local_.audit();
  }

  bool insert(util::Fingerprint fp,
              const std::function<std::string()>& canonical = {}) override {
    if (!local_.audit()) {
      if (!local_.insert(fp)) {
        return false;
      }
      queue(fp, {});
      return true;
    }
    // The table serializes the state once per insert; keep that text for
    // the report instead of serializing again.
    std::string text;
    const auto keep_text = [&] {
      text = canonical ? canonical() : std::string{};
      return text;
    };
    try {
      if (!local_.insert(fp, keep_text)) {
        return false;
      }
    } catch (const check::StateFingerprintCollision&) {
      // Report the colliding state as well: the coordinator's table then
      // holds both texts behind one fingerprint and poisons the run.
      queue(fp, std::move(text));
      flush();
      throw;
    }
    queue(fp, std::move(text));
    return true;
  }

  // Sends the queued first sightings, if any; throws WireError if the
  // connection is gone.
  void flush() {
    if (batch_.fps.empty()) {
      return;
    }
    Session& s = session_;
    s.out.clear();
    encode_fp_batch(s.out, batch_);
    s.ch.send(MsgType::kFpBatch, s.out);
    batch_.fps.clear();
    batch_.canonicals.clear();
    canonical_bytes_ = 0;
  }

  [[nodiscard]] bool audit() const noexcept override { return local_.audit(); }

  // This worker's distinct states; the coordinator owns the run's count.
  [[nodiscard]] std::size_t states() const override { return local_.states(); }

  [[nodiscard]] std::size_t hits() const noexcept override {
    return local_.hits();
  }

 private:
  void queue(util::Fingerprint fp, std::string text) {
    batch_.fps.push_back(fp);
    if (batch_.has_canonical) {
      canonical_bytes_ += text.size();
      batch_.canonicals.push_back(std::move(text));
    }
    // Audit texts can be large; keep a frame well under kMaxFrameBytes.
    if (batch_.fps.size() >= kFpBatchSize ||
        canonical_bytes_ >= kMaxFrameBytes / 4) {
      flush();
    }
  }

  Session& session_;
  check::StateTable local_;
  FpBatchMsg batch_;  // first sightings not yet reported
  std::size_t canonical_bytes_ = 0;
};

// Handles one control frame; every frame type a worker can legally receive
// outside the job handshake.  Returns false for frame types the caller
// must handle itself.
bool handle_control(Session& s, const Frame& f) {
  switch (f.type) {
    case MsgType::kCredit: {
      WireReader r = f.reader();
      const CreditMsg credit = decode_credit(r);
      if (credit.id == s.job_id) {
        if (credit.abort) {
          s.abort_job = true;
        } else {
          s.budget.store(credit.budget, std::memory_order_relaxed);
        }
      }
      return true;
    }
    case MsgType::kStealReq:
      s.steal_wanted = true;
      return true;
    case MsgType::kPing: {
      WireReader r = f.reader();
      const PingMsg ping = decode_ping(r);
      PongMsg pong;
      pong.nonce = ping.nonce;
      s.out.clear();
      encode_pong(s.out, pong);
      s.ch.send(MsgType::kPong, s.out);
      return true;
    }
    case MsgType::kPong:
      return true;  // liveness bookkeeping happened at recv
    case MsgType::kShutdown:
      s.shutdown = true;
      s.abort_job = true;
      return true;
    default:
      return false;
  }
}

void run_job(Session& s, const JobMsg& job,
             const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
             ReportingStore* store) {
  s.job_id = job.id;
  s.live.store(0, std::memory_order_relaxed);
  s.budget.store(job.budget, std::memory_order_relaxed);
  s.abort_job = false;

  check::detail::SubtreeOptions sub =
      check::detail::subtree_options(s.hello.options);
  sub.max_executions = static_cast<std::size_t>(job.budget);
  // A job re-queued after a lost deduped attempt runs with dedupe off: a
  // worker table may hold states of regions the requeue cancelled, which
  // must not prune the re-run (job_ledger.h) - the coordinator marks it
  // no_dedupe.
  sub.dedupe_states = sub.dedupe_states && !job.no_dedupe;
  sub.table = job.no_dedupe ? nullptr : store;
  sub.live_executions = &s.live;

  check::detail::JobContext ctx;
  if (!job.region.choices.empty()) {
    ctx.root_choices = &job.region.choices;
    ctx.root_sleep = &job.region.sleep;
    ctx.root_sleep_inherited = job.region.sleep_inherited;
  }
  ctx.split.want = [&s] { return s.steal_wanted; };
  ctx.split.take = [&s](check::detail::Donation& d) {
    DonateMsg msg;
    msg.parent = s.job_id;
    msg.region = std::move(d);
    s.out.clear();
    encode_donate(s.out, msg);
    s.ch.send(MsgType::kDonate, s.out);
    s.steal_wanted = false;  // one donation per request
    s.log->line("worker %u: donated prefix=%zu choices=%zu (job %llu)",
                s.hello.worker, msg.region.prefix.size(),
                msg.region.choices.size(),
                static_cast<unsigned long long>(s.job_id));
    return true;
  };

  std::uint64_t last_reported = 0;
  std::uint64_t probes = 0;
  auto abort = [&]() -> bool {
    if (probes++ % kProbeInterval == 0) {
      pump(s);
    }
    const std::uint64_t n = s.live.load(std::memory_order_relaxed);
    if (job.fault_after != 0 && n >= job.fault_after) {
      // Test instrumentation: simulate a worker crash mid-job.  _Exit skips
      // every destructor, exactly like a killed process.
      s.log->line("worker %u: fault injection at %llu executions",
                  s.hello.worker, static_cast<unsigned long long>(n));
      std::_Exit(3);
    }
    if (n - last_reported >= s.hello.live_interval) {
      LiveMsg live;
      live.id = s.job_id;
      live.executions = n;
      s.out.clear();
      encode_live(s.out, live);
      s.ch.send(MsgType::kLive, s.out);
      last_reported = n;
    }
    if (s.abort_job) {
      return true;
    }
    return n >= s.budget.load(std::memory_order_relaxed);
  };

  try {
    check::detail::SubtreeResult result =
        check::detail::explore_job(factory, job.region.prefix, sub, abort,
                                   &ctx);
    if (store != nullptr) {
      store->flush();  // the job's sightings land before its result
    }
    JobResultMsg msg;
    msg.id = job.id;
    msg.result = std::move(result);
    s.out.clear();
    encode_job_result(s.out, msg);
    s.ch.send(MsgType::kJobResult, s.out);
    s.log->line("worker %u: job %llu done, %zu executions", s.hello.worker,
                static_cast<unsigned long long>(job.id),
                msg.result.executions);
  } catch (const WireError&) {
    throw;  // the connection itself failed; nothing further to send
  } catch (const std::exception& e) {
    if (store != nullptr) {
      store->flush();  // throws WireError if the connection is gone
    }
    JobErrorMsg msg;
    msg.id = job.id;
    msg.message = e.what();
    s.out.clear();
    encode_job_error(s.out, msg);
    s.ch.send(MsgType::kJobError, s.out);
    s.log->line("worker %u: job %llu failed: %s", s.hello.worker,
                static_cast<unsigned long long>(job.id), e.what());
  }
}

// Handshake + serve loop for one connection.  Returns on kShutdown, a
// rejected hello, or coordinator EOF while idle; throws WireError when the
// connection breaks.
void serve_session(
    Session& s,
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory) {
  if (next_frame(s, -1) <= 0 || s.in.type != MsgType::kHello) {
    throw WireError("expected hello");
  }
  {
    WireReader r = s.in.reader();
    s.hello = decode_hello(r);
  }

  HelloAckMsg ack;
  ack.session = s.hello.session;
  std::function<std::unique_ptr<ExplorableWorld>()> make = factory;
  if (make == nullptr) {
    if (s.hello.world.empty()) {
      ack.ok = false;
      ack.error = "hello named no world and the worker holds no factory";
    } else {
      check::CrashWorldSpec spec;
      spec.world = s.hello.world;
      spec.f = static_cast<std::size_t>(s.hello.f);
      spec.m = static_cast<std::size_t>(s.hello.m);
      spec.step_budget = static_cast<std::size_t>(s.hello.step_budget);
      try {
        make = check::make_crash_world_factory(spec);
      } catch (const std::exception& e) {
        ack.ok = false;
        ack.error = e.what();
      }
    }
  }
  s.out.clear();
  encode_hello_ack(s.out, ack);
  s.ch.send(MsgType::kHelloAck, s.out);
  if (!ack.ok) {
    s.log->line("worker %u: rejected hello: %s", s.hello.worker,
                ack.error.c_str());
    return;
  }
  s.log->line(
      "worker %u: serving (world=%s dedupe=%d por=%d crashes=%llu "
      "heartbeat=%ums)",
      s.hello.worker,
      s.hello.world.empty() ? "<local factory>" : s.hello.world.c_str(),
      s.hello.options.dedupe_states ? 1 : 0, s.hello.options.por ? 1 : 0,
      static_cast<unsigned long long>(s.hello.options.max_crashes),
      s.hello.heartbeat_interval_ms);
  // The dedupe table persists across the session's jobs.
  std::unique_ptr<ReportingStore> store;
  if (s.hello.options.dedupe_states) {
    store = std::make_unique<ReportingStore>(s);
  }

  while (!s.shutdown) {
    const int got = next_frame(
        s, s.hello.heartbeat_interval_ms != 0 ? liveness_tick_ms(s) : -1);
    if (got == 0) {
      check_liveness(s);
      continue;
    }
    if (got < 0) {
      return;  // coordinator gone while idle; nothing in flight is lost
    }
    if (handle_control(s, s.in)) {
      continue;
    }
    if (s.in.type != MsgType::kJob) {
      throw WireError("unexpected frame type " +
                      std::to_string(static_cast<int>(s.in.type)) +
                      " between jobs");
    }
    JobMsg job;
    {
      WireReader r = s.in.reader();
      job = decode_job(r);
    }
    s.steal_wanted = false;  // requests for a previous job are stale
    run_job(s, job, make, store.get());
  }
  s.log->line("worker %u: shutdown", s.hello.worker);
}

// Extra wait for a run's first dial: the coordinator dials right after the
// fork, but a loaded host may take a moment to get there.
constexpr int kFirstDialSlackMs = 10'000;

}  // namespace

void serve(int listen_fd,
           const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
           FaultPlan faults, const std::string& log_path,
           int redial_window_ms) {
  Log log(log_path);
  const bool standing = redial_window_ms < 0;
  for (bool first = true;; first = false) {
    const int wait_ms =
        standing ? -1 : redial_window_ms + (first ? kFirstDialSlackMs : 0);
    int fd = -1;
    try {
      fd = accept_tcp(listen_fd, wait_ms);
    } catch (const std::exception& e) {
      log.line("worker: accept: %s", e.what());
      if (standing) {
        continue;
      }
      break;
    }
    if (fd < 0) {
      log.line("worker: no coordinator dialed within the window");
      break;
    }
    Session s;
    s.log = &log;
    try {
      s.ch.adopt(fd);
      if (faults.any()) {
        s.ch.set_faults(&faults);
      }
      serve_session(s, factory);
    } catch (const std::exception& e) {
      log.line("worker %u: connection error: %s", s.hello.worker, e.what());
    }
    if (s.shutdown && !standing) {
      break;
    }
  }
  ::close(listen_fd);
}

int serve_forever(const std::string& host, std::uint16_t port) {
  FaultPlan faults;
  if (const char* spec = std::getenv("REVISIM_FAULT_PLAN")) {
    try {
      faults = parse_fault_plan(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: REVISIM_FAULT_PLAN: %s\n", e.what());
      return 1;
    }
  }
  int listen_fd = -1;
  try {
    listen_fd = listen_tcp(host, port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "serve: listening on %s:%u\n", host.c_str(),
               static_cast<unsigned>(port));
  serve(listen_fd, nullptr, faults,
        log_path("worker-serve-" + std::to_string(::getpid())),
        /*redial_window_ms=*/-1);
  return 0;
}

}  // namespace revisim::dist
