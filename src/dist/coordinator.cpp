#include "src/dist/coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "src/check/job_ledger.h"
#include "src/check/explore_merge.h"
#include "src/check/state_table.h"
#include "src/dist/journal.h"
#include "src/dist/log.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"

namespace revisim::dist {
namespace {

using Clock = std::chrono::steady_clock;
using Job = check::detail::JobLedger::Job;

// One worker slot, owned and driven entirely by the epoll loop.  Every
// connection the slot gets, first dial and re-dial alike, starts in
// kHandshaking with a non-blocking connect and the hello queued behind it;
// the ack moves it to kServing.  Each connection is a fresh session on the
// worker's side.
struct Conn {
  // kHandshaking: connect started and hello sent, awaiting the ack.
  // kServing: live.  kAwaitingReconnect: socket dead; we re-dial within
  // the window.  kDead: retired for good.
  enum Phase { kHandshaking, kServing, kAwaitingReconnect, kDead };

  Channel ch;
  std::size_t worker = 0;
  std::uint64_t session = 0;  // token every hello of this slot carries
  Endpoint endpoint;
  WireWriter out;  // per-connection serialization buffer
  Frame in;
  FaultPlan faults;  // this slot's C->W fault plan, kept across re-dials
  Phase phase = kHandshaking;
  bool served = false;  // a handshake completed, so a loss is re-dialed
  Job* current = nullptr;
  bool abort_sent = false;  // a kCredit abort for `current` is in flight

  // Liveness bookkeeping.  last_sent drives ping piggybacking: ANY frame
  // advances the worker's liveness clock, so a ping goes out only when
  // nothing else has for a full interval.
  Clock::time_point last_heard{};
  Clock::time_point last_sent{};
  std::uint64_t ping_nonce = 0;
  Clock::time_point phase_deadline{};  // handshake expiry
  Clock::time_point window_end{};      // reconnect window expiry
  Clock::time_point next_dial{};       // earliest next re-dial
  std::string death;                   // why the last served socket died
  Clock::time_point stop_since{};      // stop seen with a job still in flight
  bool stop_stalling = false;
  bool write_armed = false;  // epoll registration includes EPOLLOUT
};

// Pause between re-dial attempts at a lost endpoint.
constexpr std::chrono::milliseconds kRedialInterval{100};
// How long a dialed worker may take to answer the hello.
constexpr std::chrono::milliseconds kHandshakeTimeout{10'000};

struct CoState {
  explicit CoState(const DistExploreOptions& o)
      : options(&o),
        cap(std::max<std::uint64_t>(o.base.max_executions, 1)),
        ledger(cap, o.job_retries, o.base.dedupe_states) {}

  const DistExploreOptions* options;
  std::uint64_t cap;
  std::optional<Clock::time_point> deadline;
  Log* log = nullptr;
  JournalWriter* journal = nullptr;  // nullptr = journaling off
  int epfd = -1;

  check::detail::JobLedger ledger;
  std::size_t alive = 0;   // connections not yet retired
  std::size_t completions = 0;  // non-cancelled kDone resolutions
  bool stop = false;
  bool first_job_shipped = false;
  // Nonempty once the run lost the means to finish outstanding work (every
  // worker disconnected, the fingerprint audit found a collision, or the
  // halt_after_jobs hook fired); becomes the merged partial summary's error.
  std::string unfinished_reason;
  std::vector<std::unique_ptr<Conn>> conns;

  // Dedupe only: every first sighting the workers report (kFpBatch), for
  // the run's distinct-state count and the cross-worker collision audit.
  // It answers nothing; each worker prunes against its own table.
  std::unique_ptr<check::StateTable> seen;
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

// epoll_ctl that fails loudly: a registration that silently failed would
// lose the connection's events and hang the run.  Throws WireError naming
// the operation, the fd and errno.  Deleting an fd that is already closed
// or unregistered (EBADF, ENOENT) is not an error.
void epoll_ctl_checked(CoState& co, int op, int fd, Conn* conn, bool write) {
  struct epoll_event ev {};
  ev.events = static_cast<std::uint32_t>(EPOLLIN) |
              (write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = conn;
  if (::epoll_ctl(co.epfd, op, fd, op == EPOLL_CTL_DEL ? nullptr : &ev) ==
      0) {
    return;
  }
  const int err = errno;
  if (op == EPOLL_CTL_DEL && (err == ENOENT || err == EBADF)) {
    return;
  }
  const char* name = op == EPOLL_CTL_ADD   ? "EPOLL_CTL_ADD"
                     : op == EPOLL_CTL_MOD ? "EPOLL_CTL_MOD"
                                           : "EPOLL_CTL_DEL";
  throw WireError(std::string("epoll_ctl ") + name + " on fd " +
                  std::to_string(fd) + ": " + std::strerror(err));
}

void epoll_add(CoState& co, int fd, Conn* conn, bool write) {
  epoll_ctl_checked(co, EPOLL_CTL_ADD, fd, conn, write);
}

void epoll_mod(CoState& co, int fd, Conn* conn, bool write) {
  epoll_ctl_checked(co, EPOLL_CTL_MOD, fd, conn, write);
}

void epoll_del(CoState& co, int fd) {
  if (fd >= 0) {
    epoll_ctl_checked(co, EPOLL_CTL_DEL, fd, nullptr, false);
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
// other frame (job, credit, steal request) went out for a full interval -
// the liveness traffic piggybacks on the job protocol's own.
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
// read (JobLedger::unreadable), or to every running job once the run stops.
void push_aborts(CoState& co) {
  for (const auto& c : co.conns) {
    if (c->phase != Conn::kServing || c->current == nullptr ||
        c->abort_sent ||
        !(co.stop || co.ledger.unreadable(*c->current))) {
      continue;
    }
    c->abort_sent = true;
    const std::uint64_t id = c->current->id;
    send_msg(co, *c, MsgType::kCredit, [id](WireWriter& w) {
      CreditMsg m;
      m.id = id;
      m.abort = true;
      encode_credit(w, m);
    });
  }
}

// A lost or throwing attempt: the ledger re-queues the job (cancelling the
// regions the attempt donated) or fails it.  Cancelled regions get journal
// tombstones so a later resume ignores them too, and running ones their
// abort credit.
void requeue_or_fail(CoState& co, Job* job, const std::string& why) {
  for (const Job* c : co.ledger.requeue_or_fail(*job, why)) {
    if (co.journal != nullptr) {
      co.journal->job_discarded(c->id);
    }
    co.log->line("coordinator: job %llu cancelled (ancestor %llu re-runs)",
                 static_cast<unsigned long long>(c->id),
                 static_cast<unsigned long long>(job->id));
  }
  co.log->line("coordinator: job %llu %s (%s)",
               static_cast<unsigned long long>(job->id),
               job->state == Job::kFailed    ? "failed"
               : job->state != Job::kPending ? "dropped (cancelled)"
               : job->no_dedupe              ? "re-queued dedupe-off"
                                             : "re-queued",
               why.c_str());
  push_aborts(co);
}

// Journals a completed walk the merge may reuse verbatim (fully explored
// or violating; partial cap/stop walks re-run on resume) and advances the
// halt_after_jobs hook.
void note_completion(CoState& co, const Job* rec) {
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

HelloMsg make_hello(const CoState& co, const Conn& conn,
                    const check::CrashWorldSpec* spec) {
  HelloMsg hello;
  hello.worker = static_cast<std::uint32_t>(conn.worker);
  hello.session = conn.session;
  hello.heartbeat_interval_ms = co.options->heartbeat_interval_ms;
  hello.heartbeat_timeout_ms = co.options->heartbeat_timeout_ms;
  hello.options = co.options->base;
  hello.live_interval = std::max<std::uint64_t>(co.options->live_interval, 1);
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
  if (--co.alive == 0 &&
      (co.ledger.pending() > 0 || co.ledger.running() > 0)) {
    co.stop = true;
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = reason;
    }
  }
}

std::string endpoint_text(const Endpoint& e) {
  return e.host + ":" + std::to_string(e.port);
}

// Lost connection: requeue the in-flight job (cancelling what the attempt
// donated), then park the slot for a re-dial within the window, or retire
// it.  A failed re-dial just waits for the next one.  A slot that never
// completed a handshake is not re-dialed: the run fails, naming its
// endpoint.
void on_conn_lost(CoState& co, Conn& conn, const std::string& why) {
  if (!conn.served) {
    throw WireError("worker " + std::to_string(conn.worker) + " at " +
                    endpoint_text(conn.endpoint) +
                    " never completed its handshake: " + why);
  }
  const bool redialing = conn.phase == Conn::kHandshaking;
  const auto now = Clock::now();
  if (redialing) {
    co.log->line("coordinator: worker %zu re-dial failed: %s", conn.worker,
                 why.c_str());
  } else {
    conn.death =
        "worker " + std::to_string(conn.worker) + " disconnected: " + why;
    co.log->line("coordinator: %s", conn.death.c_str());
    if (conn.current != nullptr) {
      Job* lost = conn.current;
      conn.current = nullptr;
      requeue_or_fail(co, lost, conn.death);
    }
    conn.window_end =
        now + std::chrono::milliseconds(co.options->reconnect_window_ms);
  }
  conn.stop_stalling = false;
  epoll_del(co, conn.ch.fd());
  conn.write_armed = false;
  // Close the dead socket NOW so a partitioned-but-alive worker sees the
  // EOF, ends its session and goes back to accepting our re-dial.
  conn.ch.close();

  if (!co.stop && now < conn.window_end) {
    conn.phase = Conn::kAwaitingReconnect;
    conn.next_dial = redialing ? now + kRedialInterval : now;
    return;
  }
  retire(co, conn,
         "every worker disconnected with work outstanding (last: " +
             conn.death + ")");
}

// Starts one connection for the slot, first dial and re-dial alike: a
// non-blocking connect with the hello queued behind it.  A refused connect
// surfaces through the event loop (or as a throw from here) and reaches
// on_conn_lost like any lost handshake.
void dial(CoState& co, Conn& conn, const check::CrashWorldSpec* spec) {
  const auto now = Clock::now();
  conn.phase = Conn::kHandshaking;
  conn.phase_deadline = now + kHandshakeTimeout;
  if (conn.served) {
    conn.phase_deadline = std::min(conn.phase_deadline, conn.window_end);
  }
  conn.last_heard = conn.last_sent = now;
  conn.ch.adopt(connect_tcp_async(conn.endpoint.host, conn.endpoint.port));
  conn.ch.set_faults(conn.faults.any() ? &conn.faults : nullptr);
  epoll_add(co, conn.ch.fd(), &conn, false);
  const HelloMsg hello = make_hello(co, conn, spec);
  send_msg(co, conn, MsgType::kHello,
           [&hello](WireWriter& w) { encode_hello(w, hello); });
}

// Folds one kFpBatch report into the run's distinct-state table.  Reports
// are one way: nothing is answered.  A collision found by the audit means
// every prune taken anywhere in the run is suspect, so it poisons the run.
void handle_fp_batch(CoState& co, Conn& conn) {
  WireReader r = conn.in.reader();
  const FpBatchMsg msg = decode_fp_batch(r);
  if (co.seen == nullptr) {
    throw WireError("fingerprint report with dedupe off");
  }
  try {
    for (std::size_t i = 0; i < msg.fps.size(); ++i) {
      if (msg.has_canonical) {
        co.seen->insert(msg.fps[i], [&msg, i] { return msg.canonicals[i]; });
      } else {
        co.seen->insert(msg.fps[i]);
      }
    }
  } catch (const check::StateFingerprintCollision& e) {
    if (co.unfinished_reason.empty()) {
      co.unfinished_reason = e.what();
    }
    co.stop = true;
    push_aborts(co);
  }
}

// One inbound frame from a serving worker.  Throws WireError on protocol
// violations; the caller runs the disconnect path.
void handle_frame(CoState& co, Conn& conn) {
  Job* rec = conn.current;
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
    case MsgType::kFpBatch:
      handle_fp_batch(co, conn);
      break;
    case MsgType::kLive: {
      WireReader r = conn.in.reader();
      const LiveMsg live = decode_live(r);
      if (rec != nullptr && live.id == rec->id) {
        rec->live.store(live.executions, std::memory_order_relaxed);
        push_aborts(co);
      }
      break;
    }
    case MsgType::kDonate: {
      WireReader r = conn.in.reader();
      DonateMsg d = decode_donate(r);
      if (d.region.choices.empty()) {
        throw WireError("donation with no choices");
      }
      if (rec == nullptr) {
        throw WireError("donation outside a job");
      }
      const Job* child =
          co.ledger.donate(*rec, std::move(d.region), conn.worker);
      if (child == nullptr) {
        co.log->line("coordinator: donation from cancelled job %llu dropped",
                     static_cast<unsigned long long>(rec->id));
      } else if (co.journal != nullptr) {
        co.journal->job_created(child->id, true, rec->id, child->spec);
      }
      break;
    }
    case MsgType::kJobResult: {
      WireReader r = conn.in.reader();
      JobResultMsg msg = decode_job_result(r);
      if (rec == nullptr) {
        throw WireError("job result outside a job");
      }
      conn.current = nullptr;
      conn.stop_stalling = false;
      if (co.ledger.complete(*rec, std::move(msg.result))) {
        note_completion(co, rec);
      }
      push_aborts(co);
      break;
    }
    case MsgType::kJobError: {
      WireReader r = conn.in.reader();
      const JobErrorMsg msg = decode_job_error(r);
      if (rec == nullptr) {
        throw WireError("job error outside a job");
      }
      conn.current = nullptr;
      conn.stop_stalling = false;
      requeue_or_fail(co, rec, msg.message);
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
    retire(co, conn,
           "every worker disconnected before the run finished (last: worker " +
               std::to_string(conn.worker) + " at " +
               endpoint_text(conn.endpoint) +
               " rejected the hello: " + ack.error + ")");
    return;
  }
  if (ack.session != conn.session) {
    throw WireError("hello-ack echoes session " +
                    std::to_string(ack.session) + ", expected " +
                    std::to_string(conn.session));
  }
  if (conn.served) {
    co.log->line("coordinator: worker %zu re-dialed", conn.worker);
  }
  conn.served = true;
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

// Event-driven job assignment: ships the lex-least pending job to an idle
// serving connection, repeating until one side runs dry.  Runs after every
// event batch, so a freed worker or a fresh donation is matched
// immediately instead of waiting out a poll tick.
void assign_jobs(CoState& co) {
  while (!co.stop && co.ledger.pending() > 0) {
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
    std::uint64_t budget = 0;
    Job* rec = co.ledger.claim(idle->worker, budget);
    if (rec == nullptr) {
      return;
    }
    idle->current = rec;
    idle->abort_sent = false;
    JobMsg job;
    job.id = rec->id;
    job.budget = budget;
    job.region = rec->spec;
    job.no_dedupe = rec->no_dedupe;
    if (co.options->fault_first_job_after != 0 && !co.first_job_shipped) {
      job.fault_after = co.options->fault_first_job_after;
    }
    co.first_job_shipped = true;
    co.log->line(
        "coordinator: job %llu -> worker %zu (prefix=%zu choices=%zu "
        "budget=%llu%s)",
        static_cast<unsigned long long>(job.id), idle->worker,
        job.region.prefix.size(), job.region.choices.size(),
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
  if (!co.options->steal_requests || co.stop || co.ledger.pending() != 0 ||
      co.ledger.running() == 0) {
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
// reconnect-window and handshake expiries, re-dials, and the stop-stall
// guard.
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
          on_conn_lost(co, *c, e.what());
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
            on_conn_lost(co, *c, "worker unresponsive after stop");
          }
        } else {
          c->stop_stalling = false;
        }
        break;
      case Conn::kHandshaking:
        if (now >= c->phase_deadline) {
          on_conn_lost(co, *c, "handshake timed out");
        }
        break;
      case Conn::kAwaitingReconnect:
        if (co.stop || now >= c->window_end) {
          retire(co, *c,
                 "every worker disconnected with work outstanding (last: " +
                     c->death + ")");
        } else if (now >= c->next_dial) {
          try {
            dial(co, *c, spec);
          } catch (const std::exception& e) {
            on_conn_lost(co, *c, e.what());
          }
        }
        break;
      case Conn::kDead:
        break;
    }
  }
}

// The coordinator: one thread, one epoll loop, every connection
// non-blocking and buffered, and the only side that dials.  Ownership
// rules: the loop alone touches channels, job records and the state table
// (no locks anywhere); registrations point at Conns, which live for the
// whole run, so a stale event in the current batch always finds a live
// object and a phase check.  Re-dials start only from run_timers, between
// event batches.
void run_event_loop(CoState& co, const check::CrashWorldSpec* spec) {
  for (const auto& c : co.conns) {
    try {
      dial(co, *c, spec);
    } catch (const std::exception& e) {
      on_conn_lost(co, *c, e.what());  // throws: never served
    }
  }

  struct epoll_event events[64];
  while (!(co.ledger.running() == 0 &&
           (co.stop || co.ledger.pending() == 0))) {
    const int n =
        ::epoll_wait(co.epfd, events, 64, tick_ms(co, 100));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw WireError(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
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
        on_conn_lost(co, conn, e.what());
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

// Loads a prior run's journal into the ledger: completed regions with
// completed ancestors are reused verbatim, incomplete ones re-queue from
// their recorded specs, and descendants of incomplete jobs are tombstoned
// (their regions re-run with the ancestor).  Reopens the journal for
// appending and returns the number of records loaded.  Runs before the
// event loop starts.
std::size_t load_journal(CoState& co, const DistExploreOptions& options,
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
    co.ledger.reserve_id(j.id);
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
  // Journal order puts every parent before its children, so one pass
  // rebuilds the genealogy among survivors.
  std::unordered_map<std::uint64_t, Job*> by_id;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const JournalJob& j = *alive[i];
    if (plan[i] == check::detail::ResumeAction::kDiscard) {
      journal.job_discarded(j.id);  // tombstone for the NEXT resume
      ++discarded;
      continue;
    }
    const auto parent = j.has_parent ? by_id.find(j.parent) : by_id.end();
    const bool reuse = plan[i] == check::detail::ResumeAction::kReuse;
    Job& rec = co.ledger.insert(
        j.id, j.region, parent == by_id.end() ? nullptr : parent->second,
        reuse ? &j.result : nullptr);
    by_id[j.id] = &rec;
    if (reuse) {
      ++reused;
    } else {
      ++rerun;
    }
  }
  co.log->line(
      "coordinator: resumed %s: %zu reused, %zu re-run, %zu discarded, "
      "%zu torn byte(s) dropped",
      options.journal_path.c_str(), reused, rerun, discarded,
      contents.dropped_tail_bytes);
  return reused + rerun;
}

// Reaps every forked worker the moment it exits, waiting on a pidfd
// instead of polling; one still running once the shared 5 s grace is over
// is SIGKILLed.  Without pidfds (kernels before 5.3) a worker is killed at
// once.
void reap_children(const std::vector<pid_t>& kids) {
  const auto grace_end = Clock::now() + std::chrono::seconds(5);
  for (const pid_t pid : kids) {
    bool exited = false;
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (pidfd >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          grace_end - Clock::now());
      exited = wait_readable(
          pidfd, static_cast<int>(std::max<long long>(left.count(), 0)));
      ::close(pidfd);
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
    }
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
}

// Strict host:port: the port is 1-65535, written in digits only.
Endpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  const std::string digits =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  const bool numeric =
      !digits.empty() && digits.size() <= 5 &&
      std::all_of(digits.begin(), digits.end(),
                  [](char ch) { return ch >= '0' && ch <= '9'; });
  const unsigned long port = numeric ? std::stoul(digits) : 0;
  if (colon == 0 || port == 0 || port > 65535) {
    throw WireError("endpoint '" + text +
                    "' is not host:port with a port in 1-65535");
  }
  return {text.substr(0, colon), static_cast<std::uint16_t>(port)};
}

}  // namespace

check::ScheduleExploreResult coordinate(
    const std::vector<Endpoint>& endpoints, const DistExploreOptions& options,
    const check::CrashWorldSpec* spec) {
  check::validate(options.base);
  if (endpoints.empty()) {
    throw std::invalid_argument("dist: coordinate needs at least one worker");
  }
  if (options.resume && options.journal_path.empty()) {
    throw std::invalid_argument("dist: resume needs a journal path");
  }

  Log log(log_path("coordinator"));
  CoState co(options);
  co.log = &log;
  if (options.time_limit.count() > 0) {
    co.deadline = Clock::now() + options.time_limit;
  }
  if (options.base.dedupe_states) {
    co.seen = std::make_unique<check::StateTable>(
        check::StateTable::Options{.audit = options.base.dedupe_audit});
  }

  // Session tokens: unique within this coordinator's lifetime (and across
  // quick restarts), so an ack answering some other coordinator's hello is
  // refused.
  const std::uint64_t token_base =
      (static_cast<std::uint64_t>(::getpid()) << 40) ^
      static_cast<std::uint64_t>(
          Clock::now().time_since_epoch().count());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    auto conn = std::make_unique<Conn>();
    conn->worker = i;
    conn->session = token_base + i + 1;
    conn->endpoint = endpoints[i];
    if (options.coordinator_faults.any()) {
      conn->faults = derive_fault_plan(options.coordinator_faults, i);
    }
    co.conns.push_back(std::move(conn));
  }
  co.alive = co.conns.size();

  JournalWriter journal;
  std::size_t loaded = 0;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      loaded = load_journal(co, options, journal);  // throws on mismatch
    } else {
      journal.create(options.journal_path, journal_config_from(options));
    }
    co.journal = &journal;
  }
  if (loaded == 0) {
    // Fresh run (or a journal that died before its seed record): one seed
    // job covering the whole tree, empty key.
    const Job& seed = co.ledger.insert(co.ledger.next_id(), {}, nullptr);
    if (co.journal != nullptr) {
      journal.job_created(seed.id, false, 0, seed.spec);
    }
  }
  log.line(
      "coordinator: %zu worker(s), cap=%llu, dedupe=%d, por=%d, "
      "heartbeat=%ums/%ums, reconnect=%ums, journal=%s, faults=%s",
      co.conns.size(), static_cast<unsigned long long>(co.cap),
      options.base.dedupe_states ? 1 : 0, options.base.por ? 1 : 0,
      options.heartbeat_interval_ms, options.heartbeat_timeout_ms,
      options.reconnect_window_ms,
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

  check::ScheduleExploreResult res = co.ledger.merge(co.unfinished_reason);
  if (co.seen != nullptr) {
    // The union of the workers' reports is the run's distinct-state count;
    // each job's own figure is only its worker's table size.
    // subtrees_pruned stays the per-job sum from the merge.
    res.states_seen = co.seen->states();
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
  // One loopback listener per worker, bound before the fork so the
  // coordinator's first dial never races the child.
  std::vector<int> listeners;
  std::vector<Endpoint> endpoints;
  const auto close_listeners = [&listeners] {
    for (const int fd : listeners) {
      ::close(fd);
    }
    listeners.clear();
  };
  try {
    for (std::size_t i = 0; i < options.workers; ++i) {
      std::uint16_t port = 0;
      listeners.push_back(listen_tcp("127.0.0.1", port));
      endpoints.push_back({"127.0.0.1", port});
    }
  } catch (...) {
    close_listeners();
    throw;
  }

  // Fork every worker first; the coordinator is single-threaded, but a
  // worker forked after any thread ever existed may inherit held
  // malloc/sanitizer locks, and TSan forbids it outright.
  std::vector<pid_t> kids;
  const auto kill_kids = [&kids] {
    for (const pid_t k : kids) {
      ::kill(k, SIGKILL);
    }
  };
  for (std::size_t i = 0; i < options.workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_kids();
      reap_children(kids);
      close_listeners();
      throw WireError("fork failed");
    }
    if (pid == 0) {
      for (std::size_t j = 0; j < listeners.size(); ++j) {
        if (j != i) {
          ::close(listeners[j]);
        }
      }
      try {
        serve(listeners[i], factory,
              options.worker_faults.any()
                  ? derive_fault_plan(options.worker_faults, i)
                  : FaultPlan{},
              log_path("worker-" + std::to_string(i)),
              static_cast<int>(std::min<std::uint32_t>(
                  options.reconnect_window_ms, std::uint32_t{1} << 30)));
      } catch (...) {
      }
      // _Exit: never run the parent's atexit handlers or static
      // destructors in a forked child.
      std::_Exit(0);
    }
    kids.push_back(pid);
  }
  // Only the children hold the listeners, so a dead worker's endpoint
  // refuses the re-dial instead of queueing it.
  close_listeners();

  check::ScheduleExploreResult res;
  std::exception_ptr failure;
  try {
    res = coordinate(endpoints, options, nullptr);
  } catch (...) {
    failure = std::current_exception();
    kill_kids();  // the run is over; no worker should wait out its window
  }
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
  std::vector<Endpoint> parsed;
  for (const std::string& ep : endpoints) {
    parsed.push_back(parse_endpoint(ep));
  }
  return coordinate(parsed, options, &spec);
}

}  // namespace revisim::dist
