#include "src/dist/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <optional>
#include <unistd.h>
#include <utility>
#include <vector>

#include "src/check/crash_worlds.h"
#include "src/check/explore_core.h"
#include "src/check/state_table.h"
#include "src/dist/wire.h"

namespace revisim::dist {
namespace {

using check::ExplorableWorld;
using Clock = std::chrono::steady_clock;
using runtime::ProcessId;

class Log {
 public:
  explicit Log(const std::string& path) {
    if (!path.empty()) {
      file_ = std::fopen(path.c_str(), "a");
    }
  }
  ~Log() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  void line(const char* fmt, ...) {
    if (file_ == nullptr) {
      return;
    }
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(file_, fmt, ap);
    va_end(ap);
    std::fputc('\n', file_);
    std::fflush(file_);
  }

 private:
  std::FILE* file_ = nullptr;
};

class RemoteStateStore;

// One coordinator session: the channel (socket + framing state), the reused
// serialization buffers, and the control flags the message pump feeds into
// the running job.  The session OUTLIVES individual connections: run_worker
// re-dials on loss and the dedupe cache, session token and one-shot fault
// state all carry over.
struct Session {
  Channel ch;
  WireWriter out;  // one buffer per session; cleared per message
  Frame in;        // receive buffer, likewise reused
  Log* log = nullptr;
  FaultPlan faults;  // outbound plan storage; ch points here when armed

  HelloMsg hello;           // options from the FIRST hello of the session
  bool have_hello = false;  // a later hello is a reconnect re-handshake
  std::uint64_t token = 0;  // session token echoed on reconnect
  Clock::time_point last_heard{};

  std::uint64_t job_id = 0;
  std::atomic<std::uint64_t> live{0};    // executions of the current job
  std::atomic<std::uint64_t> budget{0};  // shrunk by kCredit messages
  bool abort_job = false;                // kCredit abort / shutdown
  bool steal_wanted = false;             // kStealReq pending, cleared on donate
  bool shutdown = false;

  // Armed while dedupe is on: kFpVerdicts frames route here from
  // handle_control, so verdicts can be consumed by every pump site (the
  // abort probe, the blocking drains, the between-jobs serve loop).
  RemoteStateStore* fp_store = nullptr;
};

bool handle_control(Session& s, const Frame& f);

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

// Drains every frame already queued on the socket without blocking, then
// checks the coordinator's liveness deadline.
void pump(Session& s) {
  for (;;) {
    const int got = s.ch.try_recv(s.in);
    if (got == 0) {
      break;
    }
    if (got < 0) {
      throw WireError("coordinator closed the connection");
    }
    s.last_heard = Clock::now();
    if (!handle_control(s, s.in)) {
      throw WireError("unexpected frame type " +
                      std::to_string(static_cast<int>(s.in.type)) +
                      " during a job");
    }
  }
  check_liveness(s);
}

// Worker-side visited-state store, pipelined: first sightings are batched
// into kFpBatch frames and claimed at the coordinator's sharded fingerprint
// service *asynchronously* - the DFS keeps descending while up to fp_window
// claims are awaiting their packed kFpVerdicts bitmap, instead of stalling
// a full round trip per distinct state.  A local StateTable still caches
// every sighting so repeats prune without touching the wire.
//
// Speculation is kept sound by one invariant: a claim (local insert + batch
// enqueue) is made ONLY when no unverdicted speculative ancestor is on the
// current DFS path, so `spec_` holds at most one entry.  Below an
// unverdicted speculative node dedupe runs claim-off (read-only contains()
// pruning only), which can never orphan a shard claim.  When the verdict
// for the on-path speculative node comes back:
//   - was_new: the walk was right all along; claiming resumes below it.
//   - duplicate: the subtree is a transposition - cancel_floor_ prunes
//     every deeper node until DFS preorder re-surfaces at or above the
//     cancelled depth (the walked part is a sound overcount; no claims
//     were made inside it, so nothing is orphaned).
// A verdict whose node was already popped needs no action: its subtree is
// fully walked, again a sound overcount.  On all-distinct workloads every
// verdict is was_new, nothing cancels, and the walk is bit-identical to
// the synchronous protocol's.
class RemoteStateStore final : public check::StateStore {
 public:
  explicit RemoteStateStore(Session& session)
      : session_(session), local_(check::StateTable::Options{.audit = false}) {
    session_.fp_store = this;
  }
  ~RemoteStateStore() override { session_.fp_store = nullptr; }

  bool insert(util::Fingerprint fp,
              const std::function<std::string()>& canonical = {}) override {
    // The DFS engine calls insert_at; treat a depthless insert as deeper
    // than any speculative ancestor (claim-off under speculation).
    return insert_at(fp, std::numeric_limits<std::size_t>::max(), canonical);
  }

  bool insert_at(util::Fingerprint fp, std::size_t depth,
                 const std::function<std::string()>& canonical = {}) override {
    Session& s = session_;
    if (!sent_batches_.empty()) {
      poll_frames();  // retire any verdicts already on the socket
    }
    if (cancel_floor_.has_value()) {
      if (depth > *cancel_floor_) {
        return false;  // still inside the cancelled duplicate subtree
      }
      cancel_floor_.reset();  // preorder left the subtree; dedupe resumes
    }
    if (spec_.has_value()) {
      if (depth <= spec_->depth) {
        // Backtracked past the speculative node before its verdict came
        // in: its subtree is fully walked, so a late duplicate verdict
        // must not cancel anything - drop the on-path marker.
        spec_.reset();
      } else {
        // Below an unverdicted speculative ancestor: a claim here could be
        // orphaned if the ancestor cancels, so dedupe is claim-off - only
        // the read-only local cache may prune.  Flush the partial batch so
        // the ancestor's verdict round trip overlaps this descent.
        flush_batch();
        if (local_.contains(fp)) {
          ++hits_;
          return false;
        }
        return true;
      }
    }
    if (!local_.insert(fp)) {
      ++hits_;
      return false;
    }
    // First local sighting: enqueue the claim and walk speculatively.
    batch_.fps.push_back(fp);
    if (audit()) {
      batch_.has_canonical = true;
      batch_.canonicals.push_back(canonical ? canonical() : std::string{});
    }
    spec_ = Spec{next_claim_id_++, depth};
    if (batch_.fps.size() >=
        std::max<std::uint32_t>(session_.hello.fp_batch, 1)) {
      flush_batch();
    }
    if (outstanding() >= std::max<std::uint32_t>(session_.hello.fp_window, 1)) {
      // Window full: the pipeline is as deep as negotiated; block until
      // the oldest batch's verdicts land.
      flush_batch();
      while (outstanding() >=
             std::max<std::uint32_t>(session_.hello.fp_window, 1)) {
        drain_one();
      }
    }
    return true;
  }

  // FIFO verdict retirement: `count` must equal the oldest in-flight
  // batch's size (claims carry no explicit ids on the wire; both sides
  // count).
  void on_verdicts(const FpVerdictsMsg& m) {
    if (sent_batches_.empty() || m.count != sent_batches_.front()) {
      throw WireError(
          "fingerprint verdict count " + std::to_string(m.count) +
          " does not match the oldest in-flight batch (" +
          (sent_batches_.empty() ? std::string("none")
                                 : std::to_string(sent_batches_.front())) +
          ")");
    }
    sent_batches_.pop_front();
    for (std::uint32_t i = 0; i < m.count; ++i) {
      const std::uint64_t id = next_verdict_id_++;
      const bool was_new = m.was_new(i);
      if (!was_new) {
        ++hits_;
      }
      if (spec_.has_value() && spec_->id == id) {
        if (!was_new) {
          cancel_floor_ = spec_->depth;  // duplicate: cancel the subtree
        }
        spec_.reset();
      }
    }
  }

  // Abort-probe hook: push any partial batch out so claims never sit
  // unflushed longer than one probe interval.
  void flush_partial() { flush_batch(); }

  // Blocks until every claim has its verdict; called before kJobResult /
  // kJobError so no fingerprint traffic straddles a job boundary.
  void end_job() {
    flush_batch();
    while (next_verdict_id_ != next_claim_id_) {
      drain_one();
    }
    spec_.reset();
    cancel_floor_.reset();
  }

  // A reconnect abandons the connection the in-flight batches were sent
  // on; the verdict pipeline restarts from zero (the local cache and its
  // already-recorded answers survive).
  void reset_pipeline() {
    batch_.fps.clear();
    batch_.canonicals.clear();
    batch_.has_canonical = false;
    sent_batches_.clear();
    next_claim_id_ = 0;
    next_verdict_id_ = 0;
    spec_.reset();
    cancel_floor_.reset();
  }

  [[nodiscard]] bool audit() const noexcept override {
    return session_.hello.dedupe_audit;
  }

  // Local lower bound; the coordinator owns the global count (shard sums).
  [[nodiscard]] std::size_t states() const override { return local_.states(); }

  [[nodiscard]] std::size_t hits() const noexcept override { return hits_; }

 private:
  struct Spec {
    std::uint64_t id = 0;     // claim id awaiting its verdict
    std::size_t depth = 0;    // DFS depth of the speculative node
  };

  [[nodiscard]] std::uint64_t outstanding() const {
    return next_claim_id_ - next_verdict_id_;
  }

  void flush_batch() {
    if (batch_.fps.empty()) {
      return;
    }
    Session& s = session_;
    s.out.clear();
    encode_fp_batch(s.out, batch_);
    s.ch.send(MsgType::kFpBatch, s.out);
    sent_batches_.push_back(static_cast<std::uint32_t>(batch_.fps.size()));
    batch_.fps.clear();
    batch_.canonicals.clear();
    batch_.has_canonical = false;
  }

  // Handles every frame already queued on the socket without blocking.
  void poll_frames() {
    Session& s = session_;
    for (;;) {
      const int got = s.ch.try_recv(s.in);
      if (got == 0) {
        return;
      }
      if (got < 0) {
        throw WireError("coordinator closed the connection");
      }
      s.last_heard = Clock::now();
      if (!handle_control(s, s.in)) {
        throw WireError("unexpected frame type " +
                        std::to_string(static_cast<int>(s.in.type)) +
                        " during a job");
      }
    }
  }

  // Blocks for one frame (any type - control frames are handled in place,
  // so credits and steal requests are never stalled by dedupe traffic),
  // honoring the liveness deadline.
  void drain_one() {
    Session& s = session_;
    for (;;) {
      if (s.hello.heartbeat_interval_ms != 0 &&
          !s.ch.wait(liveness_tick_ms(s))) {
        check_liveness(s);
        continue;
      }
      if (!s.ch.recv(s.in)) {
        throw WireError("coordinator closed the connection (verdict wait)");
      }
      s.last_heard = Clock::now();
      if (!handle_control(s, s.in)) {
        throw WireError("unexpected frame type " +
                        std::to_string(static_cast<int>(s.in.type)) +
                        " while awaiting fp verdicts");
      }
      return;
    }
  }

  Session& session_;
  check::StateTable local_;
  std::size_t hits_ = 0;

  FpBatchMsg batch_;                        // claims not yet flushed
  std::deque<std::uint32_t> sent_batches_;  // in-flight batch sizes, FIFO
  std::uint64_t next_claim_id_ = 0;
  std::uint64_t next_verdict_id_ = 0;
  std::optional<Spec> spec_;                // the one on-path unverdicted claim
  std::optional<std::size_t> cancel_floor_;  // prune depths > floor
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
    case MsgType::kFpVerdicts: {
      if (s.fp_store == nullptr) {
        return false;  // verdicts with dedupe off: protocol violation
      }
      WireReader r = f.reader();
      s.fp_store->on_verdicts(decode_fp_verdicts(r));
      return true;
    }
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
             check::StateStore* store) {
  s.job_id = job.id;
  s.live.store(0, std::memory_order_relaxed);
  s.budget.store(job.budget, std::memory_order_relaxed);
  s.abort_job = false;

  check::detail::SubtreeOptions sub;
  sub.max_steps = static_cast<std::size_t>(s.hello.max_steps);
  sub.max_executions = static_cast<std::size_t>(job.budget);
  sub.record_traces = s.hello.record_traces;
  sub.max_crashes = static_cast<std::size_t>(s.hello.max_crashes);
  // A job re-queued after a lost deduped attempt runs with dedupe off (the
  // lost attempt's claims survive in the shard table and must not prune
  // the re-run) - the coordinator marks it no_dedupe.
  sub.dedupe_states = s.hello.dedupe_states && !job.no_dedupe;
  sub.dedupe_adaptive = s.hello.dedupe_adaptive && !job.no_dedupe;
  sub.por = s.hello.por;
  sub.table = job.no_dedupe ? nullptr : store;
  sub.live_executions = &s.live;

  check::detail::JobContext ctx;
  if (!job.choices.empty()) {
    ctx.root_choices = &job.choices;
    ctx.root_sleep = &job.sleep;
    ctx.root_sleep_inherited = job.sleep_inherited;
  }
  ctx.split.want = [&s] { return s.steal_wanted; };
  ctx.split.take = [&s](check::detail::Donation& d) {
    DonateMsg msg;
    msg.parent = s.job_id;
    msg.prefix = std::move(d.prefix);
    msg.choices = std::move(d.choices);
    msg.sleep = std::move(d.sleep);
    msg.sleep_inherited = static_cast<std::uint32_t>(d.sleep_inherited);
    s.out.clear();
    encode_donate(s.out, msg);
    s.ch.send(MsgType::kDonate, s.out);
    s.steal_wanted = false;  // one donation per request
    s.log->line("worker %u: donated prefix=%zu choices=%zu (job %llu)",
                s.hello.worker, msg.prefix.size(), msg.choices.size(),
                static_cast<unsigned long long>(s.job_id));
    return true;
  };

  std::uint64_t last_reported = 0;
  std::uint64_t probes = 0;
  // The probe runs after every execution; a recvmsg syscall each time
  // costs more than a small-step execution does (the socket is empty
  // almost always).  Draining every probe_interval-th probe (negotiated in
  // the hello; ScheduleExploreOptions::dist_probe_interval, default 16)
  // keeps steal-request and credit latency at a few executions while
  // cutting the syscall rate - the toll the dist-workers-2 vs parallel-2
  // smoke gate bounds.  Interval 1 drains at every execution boundary,
  // the cadence the wire bit-parity tests pin.
  const std::uint64_t probe_interval =
      std::max<std::uint64_t>(s.hello.probe_interval, 1);
  auto abort = [&]() -> bool {
    if (probes++ % probe_interval == 0) {
      pump(s);
      if (s.fp_store != nullptr) {
        // Claims never sit unflushed longer than one probe interval even
        // when the DFS stops seeing new states.
        s.fp_store->flush_partial();
      }
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
        check::detail::explore_job(factory, job.prefix, sub, abort, &ctx);
    if (s.fp_store != nullptr) {
      // Every claim gets its verdict before the result frame: fingerprint
      // traffic never straddles a job boundary.
      s.fp_store->end_job();
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
    if (s.fp_store != nullptr) {
      s.fp_store->end_job();  // throws WireError if the connection is gone
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

// Handshake + serve loop for one (re)connection of a session.  The first
// connection's hello fixes the session options and builds the factory and
// dedupe store; a reconnect re-handshakes (HelloAck.resume
// echoing the prior token) and reuses them all.  Returns true on a clean
// end: kShutdown, a rejected hello, or - when `eof_is_clean` - EOF while
// idle.  Throws WireError when the connection is lost.
bool serve_session(
    Session& s,
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    std::function<std::unique_ptr<ExplorableWorld>()>& make,
    std::unique_ptr<RemoteStateStore>& store, bool eof_is_clean) {
  if (!s.ch.recv(s.in) || s.in.type != MsgType::kHello) {
    throw WireError("expected hello");
  }
  s.last_heard = Clock::now();
  HelloMsg hello;
  {
    WireReader r = s.in.reader();
    hello = decode_hello(r);
  }

  HelloAckMsg ack;
  if (s.have_hello) {
    // Reconnect: the coordinator's hello is provisional; answer with the
    // prior session token so the acceptor can route this socket back to
    // our serve thread.  Session options stay as first negotiated.
    ack.resume = true;
    ack.session = s.token;
  } else {
    s.hello = hello;
    s.token = hello.session;
    ack.session = hello.session;
    if (make == nullptr) {
      make = factory;
    }
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
  }
  s.out.clear();
  encode_hello_ack(s.out, ack);
  s.ch.send(MsgType::kHelloAck, s.out);
  if (!ack.ok) {
    s.log->line("worker %u: rejected hello: %s", s.hello.worker,
                ack.error.c_str());
    return true;
  }
  if (!s.have_hello) {
    s.have_hello = true;
    s.log->line(
        "worker %u: serving (world=%s dedupe=%d por=%d crashes=%llu "
        "heartbeat=%ums)",
        s.hello.worker,
        s.hello.world.empty() ? "<local factory>" : s.hello.world.c_str(),
        s.hello.dedupe_states ? 1 : 0, s.hello.por ? 1 : 0,
        static_cast<unsigned long long>(s.hello.max_crashes),
        s.hello.heartbeat_interval_ms);
    // The dedupe cache persists across jobs (and across reconnects).
    if (s.hello.dedupe_states) {
      store = std::make_unique<RemoteStateStore>(s);
    }
  } else {
    s.log->line("worker %u: session resumed", s.hello.worker);
    if (store != nullptr) {
      // The in-flight batches died with the old connection; the verdict
      // pipeline restarts from zero (the local cache survives).
      store->reset_pipeline();
    }
  }

  while (!s.shutdown) {
    if (s.hello.heartbeat_interval_ms != 0) {
      if (!s.ch.wait(liveness_tick_ms(s))) {
        check_liveness(s);
        continue;
      }
    }
    if (!s.ch.recv(s.in)) {
      if (eof_is_clean) {
        break;  // coordinator gone; nothing left to serve
      }
      throw WireError("coordinator closed the connection");
    }
    s.last_heard = Clock::now();
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
  if (s.shutdown) {
    s.log->line("worker %u: shutdown", s.hello.worker);
  }
  return true;
}

}  // namespace

void serve_connection(
    int fd,
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::string& log_path, const FaultPlan& faults) {
  Log log(log_path);
  Session s;
  s.log = &log;
  s.faults = faults;
  s.ch.adopt(fd);
  if (s.faults.any()) {
    s.ch.set_faults(&s.faults);
  }
  std::function<std::unique_ptr<ExplorableWorld>()> make;
  std::unique_ptr<RemoteStateStore> store;
  try {
    serve_session(s, factory, make, store, /*eof_is_clean=*/true);
  } catch (const std::exception& e) {
    log.line("worker %u: connection error: %s", s.hello.worker, e.what());
  }
}

int run_worker(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const WorkerOptions& options) {
  Log log(options.log_path);
  Session s;
  s.log = &log;
  s.faults = options.faults;
  std::function<std::unique_ptr<ExplorableWorld>()> make;
  std::unique_ptr<RemoteStateStore> store;

  try {
    s.ch.adopt(connect_tcp(options.host, options.port,
                           std::chrono::milliseconds(10'000), options.seed));
  } catch (const std::exception& e) {
    log.line("worker: initial dial failed: %s", e.what());
    return 1;
  }
  if (s.faults.any()) {
    s.ch.set_faults(&s.faults);
  }

  for (;;) {
    try {
      // EOF while idle is clean only when reconnect is off; with it on, an
      // idle EOF is the coordinator cutting a dead connection and the
      // session should re-dial (the run may still be live).
      serve_session(s, factory, make, store,
                    /*eof_is_clean=*/options.reconnect_window_ms == 0);
      return 0;
    } catch (const std::exception& e) {
      if (s.shutdown || options.reconnect_window_ms == 0) {
        log.line("worker %u: connection error: %s", s.hello.worker, e.what());
        return s.shutdown ? 0 : 1;
      }
      log.line("worker %u: connection lost (%s); re-dialing", s.hello.worker,
               e.what());
    }
    try {
      const int fd = connect_tcp(
          options.host, options.port,
          std::chrono::milliseconds(options.reconnect_window_ms),
          options.seed);
      s.ch.adopt(fd);
      if (s.faults.any()) {
        s.ch.set_faults(&s.faults);
      }
    } catch (const std::exception& e) {
      log.line("worker %u: gave up reconnecting: %s", s.hello.worker,
               e.what());
      return 1;
    }
  }
}

int serve_forever(const std::string& host, std::uint16_t port) {
  const char* log_dir = std::getenv("REVISIM_DIST_LOG");
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
  for (;;) {
    int fd = -1;
    try {
      fd = accept_tcp(listen_fd, /*timeout_ms=*/-1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: accept: %s\n", e.what());
      continue;
    }
    if (fd < 0) {
      continue;
    }
    std::string log_path;
    if (log_dir != nullptr) {
      log_path = std::string(log_dir) + "/worker-serve-" +
                 std::to_string(::getpid()) + ".log";
    }
    serve_connection(fd, nullptr, log_path, faults);
  }
}

}  // namespace revisim::dist
