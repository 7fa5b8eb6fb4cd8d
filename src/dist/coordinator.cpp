#include "src/dist/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "src/check/explore_core.h"
#include "src/check/explore_merge.h"
#include "src/check/state_table.h"
#include "src/dist/journal.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"

namespace revisim::dist {
namespace {

using Clock = std::chrono::steady_clock;
using check::detail::key_less;
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

// The distributed twin of parallel_explore.cpp's JobRecord, extended with
// the genealogy the fault-recovery machinery needs: a lost attempt's
// re-run walks the job's FULL original region, so everything the attempt
// donated (children, recursively) must be cancelled or it would be double
// counted.  All state is owned by the single-threaded event loop - no
// locks anywhere in the coordinator.
struct DistJob {
  enum State : int { kPending, kRunning, kDone, kFailed, kAborted };

  std::uint64_t id = 0;
  std::vector<ProcessId> key;      // prefix + first choice; see explore_merge.h
  std::vector<ProcessId> prefix;
  std::vector<ProcessId> choices;  // empty = all (seed job)
  std::vector<ProcessId> sleep;
  std::uint32_t sleep_inherited = 0;  // see DonateMsg
  std::size_t donor = 0;
  bool donated = false;            // false for the seed and resumed jobs
  State state = kPending;
  std::size_t failures = 0;        // failed/lost attempts consumed
  bool abort_sent = false;         // a kCredit abort is already in flight
  // A lost deduped attempt's claims survive in the shard table; the re-run
  // (and every region it donates, recursively) walks with dedupe off so an
  // orphaned claim can never prune it.
  bool no_dedupe = false;
  // Genealogy.  `children` spans every attempt; `cancelled` excludes the
  // record from the merge because an ancestor's re-run re-covers its
  // region.
  DistJob* parent = nullptr;
  std::vector<DistJob*> children;
  bool cancelled = false;
  // Lower bound on this region's executions, fed by kLive messages; same
  // cap-bound role as JobRecord::live_execs.
  std::uint64_t live = 0;
  check::detail::SubtreeResult result;  // valid once kDone
  std::string error;                    // valid once kFailed
};

// Every epoll registration points at one of these; `kind` says what the
// event loop is looking at.
struct PollTarget {
  enum Kind { kWorkerConn, kProvisional };
  Kind kind = kWorkerConn;
};

// One worker connection, owned and driven entirely by the epoll loop.  The
// session outlives individual sockets: on a lost connection the Conn moves
// to kAwaitingReconnect and a provisional handshake delivers the fresh
// channel back under the same session token.
struct Conn : PollTarget {
  // kHandshaking: hello sent, awaiting the ack.  kServing: live.
  // kAwaitingReconnect: socket dead, fork-mode worker may re-dial within
  // the window.  kDead: retired for good.
  enum Phase { kHandshaking, kServing, kAwaitingReconnect, kDead };

  Channel ch;
  std::size_t worker = 0;
  std::uint64_t session = 0;  // token the reconnecting worker echoes
  WireWriter out;             // per-connection serialization buffer
  Frame in;
  FaultPlan faults;  // per-connection C->W fault plan storage
  Phase phase = kHandshaking;
  DistJob* current = nullptr;

  // Liveness bookkeeping.  last_sent drives ping piggybacking: ANY frame
  // advances the worker's liveness clock, so a ping goes out only when
  // nothing else has for a full interval.
  Clock::time_point last_heard{};
  Clock::time_point last_sent{};
  std::uint64_t ping_nonce = 0;
  Clock::time_point phase_deadline{};  // handshake / reconnect-window expiry
  std::string death;                   // why the socket died (reconnect path)
  Clock::time_point stop_since{};      // stop seen with a job still in flight
  bool stop_stalling = false;
  bool write_armed = false;  // epoll registration includes EPOLLOUT

  // Cluster mode: the endpoint to re-dial (empty host = fork mode, where
  // the worker re-dials us through the kept-open listener instead).
  std::string host;
  std::uint16_t port = 0;
};

// A re-dialed socket mid-handshake: the provisional hello is out, the ack
// (echoing a session token) decides which Conn adopts the channel.
struct Provisional : PollTarget {
  Channel ch;
  Frame in;
  Clock::time_point deadline{};
  bool dead = false;
  bool write_armed = false;
};

struct CoState {
  const DistExploreOptions* options = nullptr;
  std::uint64_t cap = 0;
  std::optional<Clock::time_point> deadline;
  Log* log = nullptr;
  JournalWriter* journal = nullptr;  // nullptr = journaling off
  int listen_fd = -1;                // reconnect acceptor source; -1 = none
  int epfd = -1;

  std::vector<std::unique_ptr<DistJob>> records;  // append-only
  std::uint64_t next_id = 0;  // ids survive resume, so != records index
  std::size_t pending = 0;
  std::size_t running = 0;
  std::size_t alive = 0;   // connections not yet retired
  std::size_t completions = 0;  // non-cancelled kDone resolutions
  bool stop = false;
  bool first_job_shipped = false;
  bool have_violation = false;
  std::vector<ProcessId> violation_key;
  std::size_t steals = 0;
  // Nonempty once the run lost the means to finish outstanding work (every
  // worker disconnected, the fingerprint audit found a collision, or the
  // halt_after_jobs hook fired); becomes the merged partial summary's error.
  std::string unfinished_reason;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<Provisional>> provisional;

  // Sharded fingerprint service (dedupe only).  Shard = top bits of fp.hi;
  // each shard is an ordinary StateTable whose insert_batch serves one
  // kFpBatch frame's worth of claims per call.
  std::vector<std::unique_ptr<check::StateTable>> shards;
  std::size_t shard_bits = 0;

  // Sum of live execution counters over records lex-before `key` - a lower
  // bound on the serial execution count before this record's region.
  // Cancelled records hold live == 0 (their region is re-counted by the
  // ancestor that re-runs it).
  std::uint64_t bound_before(const std::vector<ProcessId>& key) const {
    std::uint64_t sum = 0;
    for (const auto& r : records) {
      if (!r->cancelled && key_less(r->key, key)) {
        sum += r->live;
      }
    }
    return sum;
  }
};

// Poll granularity: with heartbeats armed the loop must wake often enough
// to ping on the interval and notice the timeout promptly; without them
// only coarse timers (deadline, reconnect windows) need the wakeup.
int tick_ms(const CoState& co, int cap) {
  const std::uint32_t hb = co.options->heartbeat_interval_ms;
  if (hb == 0) {
    return cap;
  }
  return static_cast<int>(std::min<std::uint32_t>(
      std::max<std::uint32_t>(hb / 2, 10), static_cast<std::uint32_t>(cap)));
}

void epoll_add(CoState& co, int fd, PollTarget* t, bool write) {
  struct epoll_event ev {};
  ev.events = EPOLLIN | (write ? EPOLLOUT : 0);
  ev.data.ptr = t;
  ::epoll_ctl(co.epfd, EPOLL_CTL_ADD, fd, &ev);
}

void epoll_mod(CoState& co, int fd, PollTarget* t, bool write) {
  struct epoll_event ev {};
  ev.events = EPOLLIN | (write ? EPOLLOUT : 0);
  ev.data.ptr = t;
  ::epoll_ctl(co.epfd, EPOLL_CTL_MOD, fd, &ev);
}

void epoll_del(CoState& co, int fd) {
  if (fd >= 0) {
    ::epoll_ctl(co.epfd, EPOLL_CTL_DEL, fd, nullptr);
  }
}

// Pushes the tx buffer as far as the socket allows and keeps the EPOLLOUT
// interest in sync with whether bytes remain.  Throws WireError on a hard
// socket failure.
void pump_writes(CoState& co, Conn& conn) {
  const bool pending = !conn.ch.flush();
  if (pending != conn.write_armed) {
    conn.write_armed = pending;
    epoll_mod(co, conn.ch.fd(), &conn, pending);
  }
}

// Enqueues one frame and pushes it out.  A send failure is swallowed: the
// epoll loop observes the dead socket (EPOLLERR/HUP or read EOF) and runs
// the disconnect path exactly once, from one place.
template <typename Encode>
void send_msg(CoState& co, Conn& conn, MsgType type, Encode encode) {
  if (!conn.ch.valid()) {
    return;
  }
  conn.out.clear();
  encode(conn.out);
  try {
    conn.ch.enqueue(type, conn.out);
    conn.last_sent = Clock::now();
    pump_writes(co, conn);
  } catch (const WireError&) {
  }
}

// Heartbeat driver, run every tick for every serving connection: throws
// once the worker has been silent past the timeout, and pings only when no
// other frame (job, credit, verdicts) went out for a full interval - the
// liveness traffic piggybacks on the pipeline's own.
void heartbeat(CoState& co, Conn& conn) {
  const std::uint32_t interval = co.options->heartbeat_interval_ms;
  if (interval == 0) {
    return;
  }
  const auto now = Clock::now();
  const auto silent =
      std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                            conn.last_heard);
  if (silent.count() >= co.options->heartbeat_timeout_ms) {
    throw WireError("heartbeat timeout: worker " +
                    std::to_string(conn.worker) + " silent for " +
                    std::to_string(silent.count()) + "ms");
  }
  if (now - conn.last_sent >= std::chrono::milliseconds(interval)) {
    const std::uint64_t nonce = ++conn.ping_nonce;
    send_msg(co, conn, MsgType::kPing, [nonce](WireWriter& w) {
      PingMsg m;
      m.nonce = nonce;
      encode_ping(w, m);
    });
  }
}

// Pushes kCredit aborts to every running job the merge provably cannot
// read: lex-earlier regions already secured the cap, a lex-earlier
// violation is final, or the job was cancelled outright (an ancestor
// re-runs its region).
void push_aborts(CoState& co) {
  for (const auto& c : co.conns) {
    if (c->phase != Conn::kServing || c->current == nullptr ||
        c->current->abort_sent) {
      continue;
    }
    DistJob* rec = c->current;
    const bool dead_key =
        co.have_violation && key_less(co.violation_key, rec->key);
    if (co.stop || dead_key || rec->cancelled ||
        co.bound_before(rec->key) >= co.cap) {
      rec->abort_sent = true;
      const std::uint64_t id = rec->id;
      send_msg(co, *c, MsgType::kCredit, [id](WireWriter& w) {
        CreditMsg m;
        m.id = id;
        m.abort = true;
        encode_credit(w, m);
      });
    }
  }
}

// Cancels every descendant of `rec`, recursively: the re-run of `rec`
// walks its full original region, descendants included, so keeping their
// records would double count.  Pending descendants leave the queue,
// running ones are left to their abort credit (caller runs push_aborts),
// finished ones are excluded from the merge, and the journal gets a
// tombstone so a later resume ignores them too.
void cancel_subtree(CoState& co, DistJob* rec) {
  for (DistJob* child : rec->children) {
    if (!child->cancelled) {
      child->cancelled = true;
      child->live = 0;
      if (child->state == DistJob::kPending) {
        child->state = DistJob::kAborted;
        --co.pending;
      }
      if (co.journal != nullptr) {
        co.journal->job_discarded(child->id);
      }
      co.log->line("coordinator: job %llu cancelled (ancestor %llu re-runs)",
                   static_cast<unsigned long long>(child->id),
                   static_cast<unsigned long long>(rec->id));
    }
    cancel_subtree(co, child);
  }
}

// Re-queues a lost or throwing job - cancelling everything the lost
// attempt donated - or fails it once retries are exhausted.  With
// dedupe_states on, the lost attempt's claim-then-walk claims survive in
// the shard table, so the re-run is marked no_dedupe (inherited by every
// region it donates): it walks with dedupe off and can never be pruned by
// an orphaned claim, keeping states_seen bounded by the serial count.
void requeue_or_fail(CoState& co, DistJob* rec, const std::string& why) {
  ++rec->failures;
  if (rec->failures > co.options->job_retries) {
    rec->state = DistJob::kFailed;
    rec->error = why;
    co.log->line("coordinator: job %llu failed (%s)",
                 static_cast<unsigned long long>(rec->id), why.c_str());
  } else {
    cancel_subtree(co, rec);
    rec->state = DistJob::kPending;
    rec->live = 0;
    rec->abort_sent = false;
    if (co.options->base.dedupe_states) {
      rec->no_dedupe = true;
    }
    ++co.pending;
    co.log->line("coordinator: job %llu re-queued%s (%s)",
                 static_cast<unsigned long long>(rec->id),
                 rec->no_dedupe ? " dedupe-off" : "", why.c_str());
  }
}

// Journals a completed walk the merge may reuse verbatim (fully explored
// or violating; partial cap/stop walks re-run on resume) and advances the
// halt_after_jobs hook.
void note_completion(CoState& co, DistJob* rec) {
  if (co.journal != nullptr &&
      (rec->result.fully_explored || rec->result.violation.has_value())) {
    co.journal->job_done(rec->id, rec->result);
  }
  ++co.completions;
  if (co.options->halt_after_jobs != 0 && !co.stop &&
      co.completions >= co.options->halt_after_jobs) {
    co.stop = true;
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = "halted by test instrumentation after " +
                             std::to_string(co.completions) +
                             " completed job(s)";
    }
    co.log->line("coordinator: halt_after_jobs hook fired at %zu",
                 co.completions);
    push_aborts(co);
  }
}

bool past_deadline(const CoState& co) {
  return co.deadline && Clock::now() >= *co.deadline;
}

HelloMsg make_hello(const CoState& co, std::uint32_t worker,
                    std::uint64_t session,
                    const check::CrashWorldSpec* spec) {
  const check::ScheduleExploreOptions& base = co.options->base;
  HelloMsg hello;
  hello.worker = worker;
  hello.session = session;
  hello.heartbeat_interval_ms = co.options->heartbeat_interval_ms;
  hello.heartbeat_timeout_ms = co.options->heartbeat_timeout_ms;
  hello.max_steps = base.max_steps;
  hello.max_crashes = base.max_crashes;
  hello.record_traces = base.record_traces;
  hello.dedupe_states = base.dedupe_states;
  hello.dedupe_audit = base.dedupe_audit;
  hello.dedupe_adaptive = base.dedupe_adaptive;
  hello.por = base.por;
  hello.live_interval = std::max<std::uint64_t>(co.options->live_interval, 1);
  hello.probe_interval =
      std::max<std::uint64_t>(base.dist_probe_interval, 1);
  hello.fp_batch = std::max<std::uint32_t>(co.options->fp_batch, 1);
  hello.fp_window =
      std::max<std::uint32_t>(co.options->fp_window, hello.fp_batch);
  if (spec != nullptr) {
    hello.world = spec->world;
    hello.f = spec->f;
    hello.m = spec->m;
    hello.step_budget = spec->step_budget;
  }
  return hello;
}

// Retires a session for good.  When the last one goes with work still
// outstanding the run can never finish; poison it with a summary error
// instead of hanging.
void retire(CoState& co, Conn& conn, const std::string& reason) {
  epoll_del(co, conn.ch.fd());
  conn.phase = Conn::kDead;
  conn.write_armed = false;
  conn.ch.close();
  if (--co.alive == 0 && (co.pending > 0 || co.running > 0)) {
    co.stop = true;
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = reason;
    }
  }
}

// Blocking hello/ack handshake on conn's current (blocking) channel - the
// cluster-mode re-dial path only; first connections and fork-mode
// reconnects handshake asynchronously through the event loop.  Returns
// false on rejection or I/O failure.
bool handshake_blocking(CoState& co, Conn& conn,
                        const check::CrashWorldSpec* spec) {
  const HelloMsg hello = make_hello(
      co, static_cast<std::uint32_t>(conn.worker), conn.session, spec);
  try {
    conn.out.clear();
    encode_hello(conn.out, hello);
    conn.ch.send(MsgType::kHello, conn.out);
    if (!conn.ch.wait(10'000) || !conn.ch.recv(conn.in) ||
        conn.in.type != MsgType::kHelloAck) {
      throw WireError("no hello-ack");
    }
    WireReader r = conn.in.reader();
    const HelloAckMsg ack = decode_hello_ack(r);
    if (!ack.ok) {
      throw WireError("worker rejected hello: " + ack.error);
    }
  } catch (const std::exception& e) {
    co.log->line("coordinator: worker %zu handshake failed: %s", conn.worker,
                 e.what());
    return false;
  }
  return true;
}

// Lost connection: requeue the in-flight job (cancelling what the attempt
// donated), then either re-dial (cluster mode; deliberately blocking - the
// loop pauses, which is acceptable for the rare recovery path), park the
// session awaiting a fork-mode re-dial, or retire it.
void on_conn_lost(CoState& co, Conn& conn, const std::string& why,
                  const check::CrashWorldSpec* spec) {
  const std::string death =
      "worker " + std::to_string(conn.worker) + " disconnected: " + why;
  co.log->line("coordinator: %s", death.c_str());
  if (conn.current != nullptr) {
    requeue_or_fail(co, conn.current, death);
    --co.running;
    conn.current = nullptr;
    push_aborts(co);
  }
  conn.stop_stalling = false;
  epoll_del(co, conn.ch.fd());
  conn.write_armed = false;

  if (!co.stop && co.options->reconnect_window_ms > 0 && !conn.host.empty()) {
    // Cluster mode: re-dial the recorded endpoint ourselves.
    try {
      const int fd = connect_tcp(
          conn.host, conn.port,
          std::chrono::milliseconds(co.options->reconnect_window_ms),
          conn.worker);
      conn.ch.adopt(fd);
      conn.ch.set_faults(conn.faults.any() ? &conn.faults : nullptr);
      if (handshake_blocking(co, conn, spec)) {
        conn.ch.set_nonblocking();
        conn.phase = Conn::kServing;
        conn.last_heard = conn.last_sent = Clock::now();
        epoll_add(co, conn.ch.fd(), &conn, false);
        co.log->line("coordinator: worker %zu session resumed", conn.worker);
        return;
      }
      conn.ch.close();
    } catch (const std::exception& e) {
      co.log->line("coordinator: worker %zu re-dial failed: %s", conn.worker,
                   e.what());
    }
    retire(co, conn,
           "every worker disconnected with work outstanding (last: " + death +
               ")");
    return;
  }

  if (!co.stop && co.options->reconnect_window_ms > 0 && co.listen_fd >= 0) {
    // Fork mode: close the dead socket NOW so a partitioned-but-alive
    // worker sees the EOF and knows to re-dial the kept-open listener.
    conn.ch.close();
    conn.phase = Conn::kAwaitingReconnect;
    conn.phase_deadline =
        Clock::now() +
        std::chrono::milliseconds(co.options->reconnect_window_ms);
    conn.death = death;
    return;
  }

  retire(co, conn,
         "every worker disconnected with work outstanding (last: " + death +
             ")");
}

void kill_provisional(CoState& co, Provisional& p) {
  epoll_del(co, p.ch.fd());
  p.ch.close();
  p.dead = true;
}

// Sends one kFpInsert's verdict - the wire-v2 synchronous path, kept for
// protocol completeness; v3 workers speak kFpBatch.
void handle_fp_insert(CoState& co, Conn& conn) {
  WireReader r = conn.in.reader();
  FpInsertMsg msg = decode_fp_insert(r);
  const std::size_t shard =
      co.shard_bits == 0
          ? 0
          : static_cast<std::size_t>(msg.fp.hi >> (64 - co.shard_bits));
  FpReplyMsg reply;
  try {
    std::function<std::string()> canonical;
    if (msg.has_canonical) {
      canonical = [&msg] { return msg.canonical; };
    }
    reply.was_new = co.shards[shard]->insert(msg.fp, canonical);
  } catch (const check::StateFingerprintCollision& e) {
    // The audit found two canonical states behind one fingerprint: every
    // prune taken anywhere in this run is suspect.  Poison the run; the
    // worker gets its reply and then an abort credit.
    reply.was_new = true;
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = e.what();
    }
    co.stop = true;
    push_aborts(co);
  }
  send_msg(co, conn, MsgType::kFpReply,
           [&reply](WireWriter& w) { encode_fp_reply(w, reply); });
}

// Serves one kFpBatch frame: bucket the claims by shard, bulk-insert each
// shard's slice (one prefetch-warmed probe pass per shard), scatter the
// verdicts back into wire order and answer with one packed kFpVerdicts
// bitmap.
void handle_fp_batch(CoState& co, Conn& conn) {
  WireReader r = conn.in.reader();
  FpBatchMsg msg = decode_fp_batch(r);
  const std::uint32_t n = static_cast<std::uint32_t>(msg.fps.size());
  FpVerdictsMsg verdicts;
  verdicts.resize(n);
  std::vector<std::vector<std::uint32_t>> by_shard(
      std::max<std::size_t>(co.shards.size(), 1));
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t shard =
        co.shard_bits == 0
            ? 0
            : static_cast<std::size_t>(msg.fps[i].hi >> (64 - co.shard_bits));
    by_shard[shard].push_back(i);
  }
  bool poisoned = false;
  std::string poison;
  std::vector<util::Fingerprint> fps;
  std::vector<bool> scratch;  // avoid vector<bool>: insert_batch wants bool*
  std::unique_ptr<bool[]> was_new;
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    const std::vector<std::uint32_t>& idx = by_shard[s];
    if (idx.empty()) {
      continue;
    }
    if (poisoned) {
      // The audit already blew up: answer was_new for the rest (the run is
      // poisoned and aborting; no prune taken on these matters).
      for (const std::uint32_t i : idx) {
        verdicts.set(i, true);
      }
      continue;
    }
    fps.clear();
    for (const std::uint32_t i : idx) {
      fps.push_back(msg.fps[i]);
    }
    was_new = std::make_unique<bool[]>(idx.size());
    std::function<std::string(std::size_t)> canonical;
    if (msg.has_canonical) {
      canonical = [&msg, &idx](std::size_t j) {
        return msg.canonicals[idx[j]];
      };
    }
    try {
      co.shards[s]->insert_batch(fps.data(), idx.size(), was_new.get(),
                                 canonical);
      for (std::size_t j = 0; j < idx.size(); ++j) {
        verdicts.set(idx[j], was_new[j]);
      }
    } catch (const check::StateFingerprintCollision& e) {
      poisoned = true;
      poison = e.what();
      for (const std::uint32_t i : idx) {
        verdicts.set(i, true);
      }
    }
  }
  (void)scratch;
  if (poisoned) {
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = poison;
    }
    co.stop = true;
    push_aborts(co);
  }
  send_msg(co, conn, MsgType::kFpVerdicts, [&verdicts](WireWriter& w) {
    encode_fp_verdicts(w, verdicts);
  });
}

// One inbound frame from a serving worker.  Throws WireError on protocol
// violations; the caller runs the disconnect path.
void handle_frame(CoState& co, Conn& conn) {
  DistJob* rec = conn.current;
  switch (conn.in.type) {
    case MsgType::kPing: {
      WireReader r = conn.in.reader();
      const PingMsg ping = decode_ping(r);
      send_msg(co, conn, MsgType::kPong, [&ping](WireWriter& w) {
        PongMsg m;
        m.nonce = ping.nonce;
        encode_pong(w, m);
      });
      break;
    }
    case MsgType::kPong:
      break;  // liveness bookkeeping happened at recv
    case MsgType::kFpInsert:
      handle_fp_insert(co, conn);
      break;
    case MsgType::kFpBatch:
      handle_fp_batch(co, conn);
      break;
    case MsgType::kLive: {
      WireReader r = conn.in.reader();
      const LiveMsg live = decode_live(r);
      if (rec != nullptr && live.id == rec->id) {
        // A cancelled job's credits must stay zero: bound_before feeding a
        // cancelled region's executions into budgets would double count
        // against the ancestor's re-run.
        if (!rec->cancelled) {
          rec->live = live.executions;
          push_aborts(co);
        }
      }
      break;
    }
    case MsgType::kDonate: {
      WireReader r = conn.in.reader();
      DonateMsg d = decode_donate(r);
      if (d.choices.empty()) {
        throw WireError("donation with no choices");
      }
      if (rec == nullptr) {
        throw WireError("donation outside a job");
      }
      if (rec->cancelled) {
        // The donated region is inside rec's region, which an ancestor's
        // re-run already re-covers.
        co.log->line("coordinator: donation from cancelled job %llu dropped",
                     static_cast<unsigned long long>(rec->id));
        break;
      }
      auto child = std::make_unique<DistJob>();
      child->id = co.next_id++;
      child->key = d.prefix;
      child->key.push_back(d.choices[0]);
      child->prefix = std::move(d.prefix);
      child->choices = std::move(d.choices);
      child->sleep = std::move(d.sleep);
      child->sleep_inherited = d.sleep_inherited;
      child->donor = conn.worker;
      child->donated = true;
      child->no_dedupe = rec->no_dedupe;  // dedupe-off regions donate likewise
      child->parent = rec;
      rec->children.push_back(child.get());
      if (co.journal != nullptr) {
        co.journal->job_created(child->id, true, rec->id, child->prefix,
                                child->choices, child->sleep,
                                child->sleep_inherited);
      }
      co.records.push_back(std::move(child));
      ++co.pending;
      break;
    }
    case MsgType::kJobResult: {
      WireReader r = conn.in.reader();
      JobResultMsg msg = decode_job_result(r);
      if (rec == nullptr) {
        throw WireError("job result outside a job");
      }
      if (!rec->cancelled) {
        rec->live = msg.result.executions;
        if (msg.result.violation &&
            (!co.have_violation || key_less(rec->key, co.violation_key))) {
          co.have_violation = true;
          co.violation_key = rec->key;
        }
        rec->result = std::move(msg.result);
        // Partial walks (abort credits, stop) are stored as kDone too,
        // exactly like the in-process explorer: the merge either never
        // reads them or reports the truncation they represent.
        rec->state = DistJob::kDone;
        note_completion(co, rec);
      } else {
        // The walk raced its cancellation; the result is already
        // re-covered by an ancestor's re-run.
        rec->state = DistJob::kDone;
      }
      --co.running;
      conn.current = nullptr;
      conn.stop_stalling = false;
      push_aborts(co);
      break;
    }
    case MsgType::kJobError: {
      WireReader r = conn.in.reader();
      const JobErrorMsg msg = decode_job_error(r);
      if (rec == nullptr) {
        throw WireError("job error outside a job");
      }
      if (!rec->cancelled) {
        requeue_or_fail(co, rec, msg.message);
        push_aborts(co);
      } else {
        rec->state = DistJob::kDone;  // cancelled: merged as skipped
      }
      --co.running;
      conn.current = nullptr;
      conn.stop_stalling = false;
      break;
    }
    default:
      throw WireError("unexpected frame type " +
                      std::to_string(static_cast<int>(conn.in.type)));
  }
}

// Consumes a kHandshaking connection's hello-ack and promotes it to
// serving (or retires it on rejection).
void finish_handshake(CoState& co, Conn& conn) {
  if (conn.in.type != MsgType::kHelloAck) {
    throw WireError("expected hello-ack, got frame type " +
                    std::to_string(static_cast<int>(conn.in.type)));
  }
  WireReader r = conn.in.reader();
  const HelloAckMsg ack = decode_hello_ack(r);
  if (!ack.ok) {
    co.log->line("coordinator: worker %zu rejected hello: %s", conn.worker,
                 ack.error.c_str());
    retire(co, conn, "every worker disconnected before the run finished");
    return;
  }
  conn.phase = Conn::kServing;
  conn.last_heard = conn.last_sent = Clock::now();
}

// Drains every complete frame buffered on the connection.  Throws on EOF
// or protocol violations.
void service_read(CoState& co, Conn& conn) {
  for (;;) {
    const int got = conn.ch.buffered_recv(conn.in);
    if (got == 0) {
      return;
    }
    if (got < 0) {
      throw WireError("connection closed");
    }
    conn.last_heard = Clock::now();
    if (conn.phase == Conn::kHandshaking) {
      finish_handshake(co, conn);
      if (conn.phase != Conn::kServing) {
        return;  // retired
      }
      continue;
    }
    handle_frame(co, conn);
  }
}

// Drives a provisional (re-dial) handshake: flush the provisional hello,
// read the ack, and hand the channel - WITH its sequence counters, which
// is why it moves instead of re-adopting - to the session whose token the
// ack echoes.
void service_provisional(CoState& co, Provisional& p, std::uint32_t events) {
  try {
    if ((events & EPOLLOUT) != 0 && p.ch.flush() && p.write_armed) {
      p.write_armed = false;
      epoll_mod(co, p.ch.fd(), &p, false);
    }
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) {
      return;
    }
    const int got = p.ch.buffered_recv(p.in);
    if (got == 0) {
      return;
    }
    if (got < 0 || p.in.type != MsgType::kHelloAck) {
      kill_provisional(co, p);
      return;
    }
    WireReader r = p.in.reader();
    const HelloAckMsg ack = decode_hello_ack(r);
    if (!ack.ok || !ack.resume) {
      kill_provisional(co, p);  // not a reconnect; drop it
      return;
    }
    for (const auto& c : co.conns) {
      if (c->session == ack.session &&
          c->phase == Conn::kAwaitingReconnect) {
        co.log->line("coordinator: worker %zu re-dialed", c->worker);
        epoll_del(co, p.ch.fd());
        c->ch = std::move(p.ch);
        p.dead = true;
        c->ch.set_faults(c->faults.any() ? &c->faults : nullptr);
        c->phase = Conn::kServing;
        c->current = nullptr;
        c->write_armed = false;
        c->last_heard = c->last_sent = Clock::now();
        epoll_add(co, c->ch.fd(), c.get(), false);
        co.log->line("coordinator: worker %zu session resumed", c->worker);
        return;
      }
    }
    kill_provisional(co, p);  // unmatched (window expired, bogus token)
  } catch (const std::exception&) {
    kill_provisional(co, p);
  }
}

// Accepts every re-dialing fork-mode worker queued on the listener and
// starts its provisional handshake (the worker's HelloAck echoes its prior
// session token with resume=true).
void accept_reconnects(CoState& co, const check::CrashWorldSpec* spec) {
  for (;;) {
    int fd = -1;
    try {
      fd = accept_tcp(co.listen_fd, 0);
    } catch (const std::exception&) {
      return;  // listener gone
    }
    if (fd < 0) {
      return;
    }
    auto prov = std::make_unique<Provisional>();
    prov->kind = PollTarget::kProvisional;
    prov->ch.adopt(fd);
    prov->deadline = Clock::now() + std::chrono::milliseconds(5'000);
    try {
      prov->ch.set_nonblocking();
      // The handshake runs fault-free on a provisional identity; the
      // session's fault plan reattaches with the channel.
      WireWriter w;
      encode_hello(w, make_hello(co, /*worker=*/0xffffffffu, /*session=*/0,
                                 spec));
      prov->ch.enqueue(MsgType::kHello, w);
      prov->write_armed = !prov->ch.flush();
      epoll_add(co, prov->ch.fd(), prov.get(), prov->write_armed);
    } catch (const std::exception&) {
      continue;  // socket died mid-hello; drop it
    }
    co.provisional.push_back(std::move(prov));
  }
}

// Event-driven job assignment: ships the lex-least pending job to an idle
// serving connection, repeating until one side runs dry.  Runs after every
// event batch, so a freed worker or a fresh donation is matched
// immediately instead of waiting out a poll tick.
void assign_jobs(CoState& co) {
  while (!co.stop && co.pending > 0) {
    Conn* idle = nullptr;
    for (const auto& c : co.conns) {
      if (c->phase == Conn::kServing && c->current == nullptr) {
        idle = c.get();
        break;
      }
    }
    if (idle == nullptr) {
      return;
    }
    DistJob* rec = nullptr;
    for (const auto& r : co.records) {
      if (r->state == DistJob::kPending &&
          (rec == nullptr || key_less(r->key, rec->key))) {
        rec = r.get();
      }
    }
    if (rec == nullptr) {
      return;
    }
    // Pre-skip jobs whose result the merge provably cannot read (same
    // bound as the in-process claim path).
    const std::uint64_t before = co.bound_before(rec->key);
    const bool dead_key =
        co.have_violation && key_less(co.violation_key, rec->key);
    if (before >= co.cap || dead_key) {
      rec->state = DistJob::kAborted;
      --co.pending;
      continue;
    }
    rec->state = DistJob::kRunning;
    --co.pending;
    ++co.running;
    idle->current = rec;
    rec->abort_sent = false;
    rec->live = 0;
    if (rec->donated && rec->donor != idle->worker) {
      ++co.steals;
    }
    JobMsg job;
    job.id = rec->id;
    job.budget = co.cap - before;
    job.prefix = rec->prefix;
    job.choices = rec->choices;
    job.sleep = rec->sleep;
    job.sleep_inherited = rec->sleep_inherited;
    job.no_dedupe = rec->no_dedupe;
    if (co.options->fault_first_job_after != 0 && !co.first_job_shipped) {
      job.fault_after = co.options->fault_first_job_after;
    }
    co.first_job_shipped = true;
    co.log->line(
        "coordinator: job %llu -> worker %zu (prefix=%zu choices=%zu "
        "budget=%llu%s)",
        static_cast<unsigned long long>(job.id), idle->worker,
        job.prefix.size(), job.choices.size(),
        static_cast<unsigned long long>(job.budget),
        job.no_dedupe ? " dedupe-off" : "");
    send_msg(co, *idle, MsgType::kJob,
             [&job](WireWriter& w) { encode_job(w, job); });
  }
}

// The hungry hint, spoken over the wire: when a serving connection idles
// with no pending job, poke every busy worker to donate.  Re-poked every
// tick in case a request raced a donation someone else claimed.
void poke_steals(CoState& co) {
  if (!co.options->steal_requests || co.stop || co.pending != 0 ||
      co.running == 0) {
    return;
  }
  bool hungry = false;
  for (const auto& c : co.conns) {
    if (c->phase == Conn::kServing && c->current == nullptr) {
      hungry = true;
      break;
    }
  }
  if (!hungry) {
    return;
  }
  for (const auto& c : co.conns) {
    if (c->phase == Conn::kServing && c->current != nullptr) {
      send_msg(co, *c, MsgType::kStealReq,
               [](WireWriter&) { /* empty payload */ });
    }
  }
}

// Timer pass, run once per epoll wakeup: run deadline, heartbeats,
// reconnect-window and handshake expiries, the stop-stall guard, and the
// provisional sweep.
void run_timers(CoState& co, const check::CrashWorldSpec* spec) {
  const auto now = Clock::now();
  if (!co.stop && past_deadline(co)) {
    co.stop = true;
    push_aborts(co);
  }
  for (const auto& c : co.conns) {
    switch (c->phase) {
      case Conn::kServing:
        try {
          heartbeat(co, *c);
        } catch (const std::exception& e) {
          on_conn_lost(co, *c, e.what(), spec);
          break;
        }
        if (co.stop && c->current != nullptr) {
          // A stopped worker answers the abort credit within one
          // execution; one that stays silent for 10s of stop is wedged or
          // gone - cut it loose so the run can summarize.
          if (!c->stop_stalling) {
            c->stop_stalling = true;
            c->stop_since = now;
          } else if (now - c->stop_since >= std::chrono::seconds(10)) {
            on_conn_lost(co, *c, "worker unresponsive after stop", spec);
          }
        } else {
          c->stop_stalling = false;
        }
        break;
      case Conn::kHandshaking:
        if (now >= c->phase_deadline) {
          co.log->line("coordinator: worker %zu handshake timed out",
                       c->worker);
          retire(co, *c,
                 "every worker disconnected before the run finished");
        }
        break;
      case Conn::kAwaitingReconnect:
        if (co.stop || now >= c->phase_deadline) {
          retire(co, *c,
                 "every worker disconnected with work outstanding (last: " +
                     c->death + ")");
        }
        break;
      case Conn::kDead:
        break;
    }
  }
  for (const auto& p : co.provisional) {
    if (!p->dead && now >= p->deadline) {
      kill_provisional(co, *p);
    }
  }
  co.provisional.erase(
      std::remove_if(co.provisional.begin(), co.provisional.end(),
                     [](const std::unique_ptr<Provisional>& p) {
                       return p->dead;
                     }),
      co.provisional.end());
}

// The coordinator: one thread, one epoll loop, every connection
// non-blocking and buffered.  Ownership rules: the loop alone touches
// channels, job records and the shard tables (no locks anywhere);
// registrations point at Conn/Provisional objects whose lifetime outlasts
// their fd (Conns live for the whole run, Provisionals are swept only
// between event batches, so a stale event in the current batch always
// finds a live object and a phase/dead check).
void run_event_loop(CoState& co, const check::CrashWorldSpec* spec) {
  const auto now = Clock::now();
  for (const auto& c : co.conns) {
    c->ch.set_nonblocking();
    c->phase = Conn::kHandshaking;
    c->phase_deadline = now + std::chrono::milliseconds(10'000);
    c->last_heard = c->last_sent = now;
    epoll_add(co, c->ch.fd(), c.get(), false);
    const HelloMsg hello = make_hello(
        co, static_cast<std::uint32_t>(c->worker), c->session, spec);
    send_msg(co, *c, MsgType::kHello,
             [&hello](WireWriter& w) { encode_hello(w, hello); });
  }
  if (co.listen_fd >= 0) {
    epoll_add(co, co.listen_fd, nullptr, false);
  }

  struct epoll_event events[64];
  while (!(co.running == 0 && (co.stop || co.pending == 0))) {
    const int n =
        ::epoll_wait(co.epfd, events, 64, tick_ms(co, 100));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw WireError(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      PollTarget* target = static_cast<PollTarget*>(events[i].data.ptr);
      if (target == nullptr) {
        accept_reconnects(co, spec);
        continue;
      }
      if (target->kind == PollTarget::kProvisional) {
        auto* p = static_cast<Provisional*>(target);
        if (!p->dead) {
          service_provisional(co, *p, events[i].events);
        }
        continue;
      }
      Conn& conn = *static_cast<Conn*>(target);
      if (conn.phase == Conn::kDead ||
          conn.phase == Conn::kAwaitingReconnect) {
        continue;  // stale event from earlier in this batch
      }
      try {
        if ((events[i].events & EPOLLOUT) != 0) {
          pump_writes(co, conn);
        }
        if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
          service_read(co, conn);
        }
      } catch (const std::exception& e) {
        on_conn_lost(co, conn, e.what(), spec);
      }
    }
    run_timers(co, spec);
    assign_jobs(co);
    poke_steals(co);
  }

  // Hand every surviving worker its shutdown, draining briefly so the
  // frame actually leaves before the close.
  for (const auto& c : co.conns) {
    if (c->phase != Conn::kServing && c->phase != Conn::kHandshaking) {
      continue;
    }
    send_msg(co, *c, MsgType::kShutdown, [](WireWriter&) {});
    try {
      for (int spins = 0; c->ch.valid() && !c->ch.flush() && spins < 100;
           ++spins) {
        struct pollfd pfd {};
        pfd.fd = c->ch.fd();
        pfd.events = POLLOUT;
        ::poll(&pfd, 1, 10);
      }
    } catch (const std::exception&) {
    }
  }
}

JournalConfig journal_config_from(const DistExploreOptions& options) {
  JournalConfig jc;
  jc.tag = options.journal_tag;
  jc.max_steps = options.base.max_steps;
  jc.max_executions = options.base.max_executions;
  jc.max_crashes = options.base.max_crashes;
  jc.por = options.base.por;
  jc.dedupe = options.base.dedupe_states;
  jc.record_traces = options.base.record_traces;
  return jc;
}

// Loads a prior run's journal into the record table: completed regions
// with completed ancestors are reused verbatim, incomplete ones re-queue
// from their recorded specs, and descendants of incomplete jobs are
// tombstoned (their regions re-run with the ancestor).  Reopens the
// journal for appending.  Runs before the event loop starts.
void load_journal(CoState& co, const DistExploreOptions& options,
                  JournalWriter& journal) {
  const JournalContents contents = read_journal(options.journal_path);
  const JournalConfig expected = journal_config_from(options);
  if (!(contents.config == expected)) {
    throw WireError(
        "journal: " + options.journal_path +
        " was recorded under a different configuration (tag '" +
        contents.config.tag + "'); resume with the original world and options");
  }
  std::vector<const JournalJob*> alive;
  std::vector<check::detail::ResumeJob> genealogy;
  for (const JournalJob& j : contents.jobs) {
    co.next_id = std::max(co.next_id, j.id + 1);
    if (j.discarded) {
      continue;
    }
    alive.push_back(&j);
    genealogy.push_back({j.id, j.has_parent, j.parent, j.done});
  }
  const std::vector<check::detail::ResumeAction> plan =
      check::detail::plan_resume(genealogy);

  journal.append_to(options.journal_path);
  std::size_t reused = 0;
  std::size_t rerun = 0;
  std::size_t discarded = 0;
  std::unordered_map<std::uint64_t, DistJob*> by_id;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const JournalJob& j = *alive[i];
    if (plan[i] == check::detail::ResumeAction::kDiscard) {
      journal.job_discarded(j.id);  // tombstone for the NEXT resume
      ++discarded;
      continue;
    }
    auto rec = std::make_unique<DistJob>();
    rec->id = j.id;
    rec->prefix = j.prefix;
    rec->choices = j.choices;
    rec->sleep = j.sleep;
    rec->sleep_inherited = j.sleep_inherited;
    rec->key = j.prefix;
    if (!j.choices.empty()) {
      rec->key.push_back(j.choices[0]);
    }
    if (plan[i] == check::detail::ResumeAction::kReuse) {
      rec->state = DistJob::kDone;
      rec->result = j.result;
      rec->live = j.result.executions;
      if (rec->result.violation &&
          (!co.have_violation || key_less(rec->key, co.violation_key))) {
        co.have_violation = true;
        co.violation_key = rec->key;
      }
      ++reused;
    } else {
      rec->state = DistJob::kPending;
      ++co.pending;
      ++rerun;
    }
    by_id[rec->id] = rec.get();
    co.records.push_back(std::move(rec));
  }
  // Rebuild the genealogy among survivors so a rerun job that fails AGAIN
  // cancels its (new) descendants correctly.
  for (const auto& r : co.records) {
    // Loaded records never link to discarded parents: a discarded parent
    // implies a discarded child.
    for (const JournalJob* j : alive) {
      if (j->id == r->id && j->has_parent) {
        const auto it = by_id.find(j->parent);
        if (it != by_id.end()) {
          r->parent = it->second;
          it->second->children.push_back(r.get());
        }
        break;
      }
    }
  }
  co.log->line(
      "coordinator: resumed %s: %zu reused, %zu re-run, %zu discarded, "
      "%zu torn byte(s) dropped",
      options.journal_path.c_str(), reused, rerun, discarded,
      contents.dropped_tail_bytes);
}

void reap_children(const std::vector<pid_t>& kids) {
  for (const pid_t pid : kids) {
    int status = 0;
    // Workers exit on shutdown or coordinator EOF; give each a grace
    // window before escalating.
    for (int spins = 0; spins < 500; ++spins) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno != EINTR)) {
        break;  // reaped, or not our child anymore
      }
      if (spins == 499) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      ::usleep(10 * 1000);
    }
  }
}

std::string log_path_for(const char* name) {
  const char* dir = std::getenv("REVISIM_DIST_LOG");
  if (dir == nullptr) {
    return {};
  }
  return std::string(dir) + "/" + name + ".log";
}

}  // namespace

check::ScheduleExploreResult coordinate(
    std::vector<int> worker_fds, const DistExploreOptions& options,
    const check::CrashWorldSpec* spec, int reconnect_listen_fd,
    const std::vector<std::pair<std::string, std::uint16_t>>* endpoints) {
  check::validate(options.base);
  if (worker_fds.empty()) {
    throw std::invalid_argument("dist: coordinate needs at least one worker");
  }
  if (options.resume && options.journal_path.empty()) {
    throw std::invalid_argument("dist: resume needs a journal path");
  }
  if (options.fp_batch < 1) {
    throw std::invalid_argument("dist: fp_batch must be >= 1");
  }
  if (options.fp_window < options.fp_batch) {
    throw std::invalid_argument(
        "dist: fp_window (" + std::to_string(options.fp_window) +
        ") must be >= fp_batch (" + std::to_string(options.fp_batch) +
        "): the outstanding window must hold at least one full batch");
  }

  Log log(log_path_for("coordinator"));
  CoState co;
  co.options = &options;
  co.log = &log;
  co.listen_fd = options.reconnect_window_ms > 0 ? reconnect_listen_fd : -1;
  co.cap = std::max<std::uint64_t>(options.base.max_executions, 1);
  if (options.time_limit.count() > 0) {
    co.deadline = Clock::now() + options.time_limit;
  }
  if (options.base.dedupe_states) {
    std::size_t shards = std::max<std::size_t>(options.fp_shards, 1);
    co.shard_bits = 0;
    while ((std::size_t{1} << co.shard_bits) < shards && co.shard_bits < 8) {
      ++co.shard_bits;
    }
    const std::size_t n = std::size_t{1} << co.shard_bits;
    for (std::size_t i = 0; i < n; ++i) {
      co.shards.push_back(std::make_unique<check::StateTable>(
          check::StateTable::Options{.audit = options.base.dedupe_audit}));
    }
  }

  // Adopt the sockets into Conn channels FIRST: any throw below (a resume
  // config mismatch, an unreadable journal) then closes them via the
  // Channel destructors, and the workers see EOF instead of hanging on a
  // hello that will never come.
  //
  // Session tokens: unique within this coordinator's lifetime (and across
  // quick restarts) so a stale worker cannot hijack another session.
  const std::uint64_t token_base =
      (static_cast<std::uint64_t>(::getpid()) << 40) ^
      static_cast<std::uint64_t>(
          Clock::now().time_since_epoch().count());
  for (std::size_t i = 0; i < worker_fds.size(); ++i) {
    auto conn = std::make_unique<Conn>();
    conn->kind = PollTarget::kWorkerConn;
    conn->ch.adopt(worker_fds[i]);
    conn->worker = i;
    conn->session = token_base + i + 1;
    if (endpoints != nullptr && i < endpoints->size()) {
      conn->host = (*endpoints)[i].first;
      conn->port = (*endpoints)[i].second;
    }
    if (options.coordinator_faults.any()) {
      conn->faults = derive_fault_plan(options.coordinator_faults, i);
      conn->ch.set_faults(&conn->faults);
    }
    co.conns.push_back(std::move(conn));
  }
  co.alive = co.conns.size();

  JournalWriter journal;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      load_journal(co, options, journal);  // throws WireError on mismatch
    } else {
      journal.create(options.journal_path, journal_config_from(options));
    }
    co.journal = &journal;
  }
  if (co.records.empty()) {
    // Fresh run (or a journal that died before its seed record): one seed
    // job covering the whole tree, empty key.
    auto seed = std::make_unique<DistJob>();
    seed->id = co.next_id++;
    if (co.journal != nullptr) {
      journal.job_created(seed->id, false, 0, seed->prefix, seed->choices,
                          seed->sleep, seed->sleep_inherited);
    }
    co.records.push_back(std::move(seed));
    co.pending = 1;
  }
  log.line(
      "coordinator: %zu worker(s), cap=%llu, dedupe=%d, por=%d, "
      "heartbeat=%ums/%ums, reconnect=%ums, fp_batch=%u/%u, journal=%s, "
      "faults=%s",
      co.conns.size(), static_cast<unsigned long long>(co.cap),
      options.base.dedupe_states ? 1 : 0, options.base.por ? 1 : 0,
      options.heartbeat_interval_ms, options.heartbeat_timeout_ms,
      options.reconnect_window_ms, options.fp_batch, options.fp_window,
      options.journal_path.empty() ? "off" : options.journal_path.c_str(),
      fault_plan_text(options.coordinator_faults).c_str());

  co.epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (co.epfd < 0) {
    throw WireError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  try {
    run_event_loop(co, spec);
  } catch (...) {
    ::close(co.epfd);
    throw;
  }
  ::close(co.epfd);
  for (const auto& conn : co.conns) {
    conn->ch.close();
  }
  journal.close();

  std::vector<check::detail::MergeJob> order;
  order.reserve(co.records.size());
  std::size_t merged_jobs = 0;
  for (const auto& r : co.records) {
    if (r->cancelled) {
      continue;  // region re-covered by an ancestor's re-run
    }
    ++merged_jobs;
    check::detail::MergeJob j;
    j.key = &r->key;
    switch (r->state) {
      case DistJob::kDone:
        j.state = check::detail::MergeJob::State::kDone;
        j.result = &r->result;
        break;
      case DistJob::kFailed:
        j.state = check::detail::MergeJob::State::kFailed;
        j.error = &r->error;
        break;
      default:
        j.state = check::detail::MergeJob::State::kUnfinished;
        break;
    }
    order.push_back(j);
  }
  check::ScheduleExploreResult res = check::detail::merge_job_results(
      order, co.cap, options.job_retries + 1, co.unfinished_reason);
  res.jobs = merged_jobs;
  res.steals = co.steals;
  if (!co.shards.empty()) {
    // The shard sums are the authoritative distinct-state count; workers
    // report only their local cache's lower bound.  subtrees_pruned stays
    // the per-job sum from the merge: worker-local cache hits never reach
    // the shards, so the job counters see strictly more prunes.
    std::size_t states = 0;
    for (const auto& s : co.shards) {
      states += s->states();
    }
    res.states_seen = states;
  }
  if (!co.unfinished_reason.empty() && !res.error.has_value() &&
      !res.timed_out) {
    // Every record resolved before the poison landed (e.g. an audit
    // collision raced the last result): the numbers merged, but no prune
    // in them is trustworthy.
    res.error = co.unfinished_reason;
    res.exhausted = false;
  }
  log.line("coordinator: merged %zu job(s): executions=%zu exhausted=%d "
           "violation=%d steals=%zu",
           res.jobs, res.executions, res.exhausted ? 1 : 0,
           res.violation.has_value() ? 1 : 0, res.steals);
  return res;
}

check::ScheduleExploreResult dist_explore_schedules(
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const DistExploreOptions& options) {
  check::validate(options.base);
  if (options.workers == 0) {
    throw std::invalid_argument("dist: workers must be >= 1");
  }
  std::uint16_t port = 0;
  const int listen_fd = listen_tcp("127.0.0.1", port);
  const char* log_dir = std::getenv("REVISIM_DIST_LOG");

  // Fork every worker first; the coordinator is single-threaded, but a
  // worker forked after any thread ever existed may inherit held
  // malloc/sanitizer locks, and TSan forbids it outright.
  std::vector<pid_t> kids;
  for (std::size_t i = 0; i < options.workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const pid_t k : kids) {
        ::kill(k, SIGKILL);
      }
      reap_children(kids);
      ::close(listen_fd);
      throw WireError("fork failed");
    }
    if (pid == 0) {
      ::close(listen_fd);
      int code = 1;
      try {
        WorkerOptions wopt;
        wopt.host = "127.0.0.1";
        wopt.port = port;
        wopt.reconnect_window_ms = options.reconnect_window_ms;
        wopt.seed = i;
        if (log_dir != nullptr) {
          wopt.log_path =
              std::string(log_dir) + "/worker-" + std::to_string(i) + ".log";
        }
        if (options.worker_faults.any()) {
          wopt.faults = derive_fault_plan(options.worker_faults, i);
        }
        code = run_worker(factory, wopt);
      } catch (...) {
      }
      // _Exit: never run the parent's atexit handlers or static
      // destructors in a forked child.
      std::_Exit(code);
    }
    kids.push_back(pid);
  }

  std::vector<int> fds;
  for (std::size_t i = 0; i < options.workers; ++i) {
    const int fd = accept_tcp(listen_fd, 10'000);
    if (fd < 0) {
      break;  // a child died before connecting; run with the rest
    }
    fds.push_back(fd);
  }

  // The listener stays open for the run: disconnected workers re-dial it
  // and the coordinator's epoll loop re-handshakes them.
  check::ScheduleExploreResult res;
  std::exception_ptr failure;
  if (fds.empty()) {
    failure = std::make_exception_ptr(WireError("no worker connected"));
  } else {
    try {
      res = coordinate(std::move(fds), options, nullptr, listen_fd);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  ::close(listen_fd);
  reap_children(kids);
  if (failure) {
    std::rethrow_exception(failure);
  }
  return res;
}

check::ScheduleExploreResult dist_explore_remote(
    const check::CrashWorldSpec& spec,
    const std::vector<std::string>& endpoints,
    const DistExploreOptions& options) {
  if (endpoints.empty()) {
    throw std::invalid_argument("dist: no worker endpoints");
  }
  std::vector<int> fds;
  std::vector<std::pair<std::string, std::uint16_t>> addrs;
  try {
    for (const std::string& ep : endpoints) {
      const std::size_t colon = ep.rfind(':');
      if (colon == std::string::npos) {
        throw WireError("endpoint '" + ep + "' is not host:port");
      }
      const std::string host = ep.substr(0, colon);
      const int port = std::atoi(ep.c_str() + colon + 1);
      if (port <= 0 || port > 65535) {
        throw WireError("endpoint '" + ep + "' has a bad port");
      }
      fds.push_back(connect_tcp(host, static_cast<std::uint16_t>(port)));
      addrs.emplace_back(host, static_cast<std::uint16_t>(port));
    }
  } catch (...) {
    for (const int fd : fds) {
      ::close(fd);
    }
    throw;
  }
  return coordinate(std::move(fds), options, &spec, -1, &addrs);
}

}  // namespace revisim::dist
