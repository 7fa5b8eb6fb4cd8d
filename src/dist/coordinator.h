// Distributed exploration coordinator.
//
// Mirrors the in-process work-stealing explorer one level up and drives
// the same job ledger (src/check/job_ledger.h) from its event loop: the
// unit of work is the same prefix-identified job, the hungry hint becomes
// a kStealReq RPC, the cap/abort coupling becomes periodic live-counter
// credit messages, and the final accounting is the identical key-sorted
// merge (src/check/explore_merge.h) - so executions / exhausted / verdict /
// lex-smallest witness stay bit-identical to the serial engine at any
// worker count, with dedupe off.  With dedupe on, each worker prunes
// against its own session StateTable and reports its first sightings one
// way; the coordinator folds the reports into one table, so states_seen is
// the exact distinct-state count on exhausted searches (the serial count)
// and the collision audit spans workers.  Verdict parity holds; executions
// may exceed the serial deduped count by cross-worker duplicates.
//
// Failure semantics (the full fault x detector x recovery x guarantee
// matrix lives in DESIGN.md):
//   - Liveness: kPing/kPong heartbeats with monotonic deadlines on both
//     sides distinguish a hung peer from a slow one; silence past
//     heartbeat_timeout_ms cuts the connection.  The v2 frame header's
//     sequence number + crc turn dropped, duplicated and corrupted frames
//     into deterministic connection cuts too.
//   - A worker that disconnects mid-job has the job re-queued (up to
//     job_retries times); every region the lost attempt donated is
//     CANCELLED, recursively, because the re-run walks the job's full
//     original region - so requeue preserves bit-exact merge accounting
//     even after donations.  With dedupe_states on, the re-run (and every
//     region it donates, recursively) executes with dedupe off: worker
//     tables may hold states of the cancelled regions, and a deduped
//     re-run could prune into a region no merged record covers.  The
//     retry rule is the JobLedger's, shared with the in-process explorer
//     (the full argument is in src/check/job_ledger.h).
//   - A session outlives its socket.  A fork-mode worker re-dials the
//     kept-open listener with backoff and re-handshakes under its prior
//     session token; a lost cluster endpoint is re-dialed by the
//     coordinator with a non-blocking connect whose hello carries the
//     session token.  Either way the event loop's provisional handshake
//     hands the fresh channel to the waiting session
//     (reconnect_window_ms bounds the wait) and the loop never blocks on
//     it.  In-flight live-counter credit is zeroed on requeue, never
//     double counted.
//   - A run journal (journal_path) records created jobs and completed
//     walks; after a coordinator crash, resume=true reloads it, reuses
//     completed regions, re-runs incomplete ones and discards their
//     descendants - the resumed merge is bit-identical to an
//     uninterrupted run.
//   - If every worker is permanently lost with work outstanding, the run
//     returns a partial summary naming the loss instead of hanging.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/crash_worlds.h"
#include "src/check/model_check.h"
#include "src/dist/fault_channel.h"

namespace revisim::dist {

struct DistExploreOptions {
  check::ScheduleExploreOptions base{};
  std::size_t workers = 2;       // fork-mode worker process count
  std::size_t job_retries = 2;   // re-queues after a lost or throwing job
  std::chrono::milliseconds time_limit{0};  // 0 = unlimited
  std::uint64_t live_interval = 256;  // executions between kLive messages
  // Turn the hungry hint into kStealReq RPCs.  Off, the tree is never
  // split: one worker walks the seed job alone while the rest idle -
  // useful when jobs are tiny relative to wire latency, and for tests
  // that need a donation-free run.
  bool steal_requests = true;

  // --- liveness / recovery ---------------------------------------------
  // Heartbeat cadence: the coordinator pings every idle or busy connection
  // on this interval and both sides declare the peer dead after
  // heartbeat_timeout_ms of silence.  interval 0 disables the liveness
  // layer (a partitioned peer is then only detected by socket errors).
  std::uint32_t heartbeat_interval_ms = 500;
  std::uint32_t heartbeat_timeout_ms = 10'000;
  // How long a lost worker's session stays open for a re-dial and
  // re-handshake (fork mode: the worker re-dials the kept-open listener;
  // cluster mode: the coordinator re-dials the endpoint every 100 ms).  0
  // disables reconnect: a lost connection is a lost worker.
  std::uint32_t reconnect_window_ms = 10'000;

  // --- run journal / checkpoint-resume ---------------------------------
  // Nonempty: append a durable run journal here (src/dist/journal.h).
  std::string journal_path;
  // journal_path holds a prior (interrupted) run: load it, reuse finished
  // regions, re-run the rest.  The journal's recorded config must match.
  bool resume = false;
  // Opaque world tag pinned in the journal config (the CLI records its
  // world flags here); resume refuses a journal with a different tag.
  std::string journal_tag;

  // --- deterministic fault injection (tests / CI) ----------------------
  // Outbound fault plans: coordinator_faults perturbs every C->W send
  // (re-seeded per connection), worker_faults is shipped to forked workers
  // (re-seeded per worker) and perturbs their W->C sends.
  FaultPlan coordinator_faults;
  FaultPlan worker_faults;

  // Test instrumentation: the first job shipped to any worker orders that
  // worker to _exit() after this many executions (0 = off), exercising the
  // crash-recovery path deterministically.
  std::uint64_t fault_first_job_after = 0;
  // Test instrumentation: stop the run (as if the coordinator died) after
  // this many job completions (0 = off).  With a journal this leaves
  // exactly the on-disk state a killed coordinator would, for resume
  // tests that cannot rely on kill timing.
  std::uint64_t halt_after_jobs = 0;
};

// Runs one exploration over already-connected worker sockets (ownership
// taken; sockets are closed on return).  `spec` names the registry world
// cluster workers must build; pass nullptr when every worker was forked
// from this process and owns the factory already.  `reconnect_listen_fd`,
// when >= 0, is a listening socket (NOT owned; the caller closes it) on
// which disconnected fork-mode workers re-dial; -1 disables acceptor-based
// reconnect.  `endpoints`, when non-null, records each worker's dialable
// (host, port) so a lost cluster connection is re-dialed by the
// coordinator instead.
check::ScheduleExploreResult coordinate(
    std::vector<int> worker_fds, const DistExploreOptions& options,
    const check::CrashWorldSpec* spec, int reconnect_listen_fd = -1,
    const std::vector<std::pair<std::string, std::uint16_t>>* endpoints =
        nullptr);

// Single-binary localhost mode: forks `options.workers` worker processes
// connected over loopback TCP, coordinates the run, shuts the workers down
// and reaps them.  Fork happens before any coordinator thread starts, so
// the mode is safe under TSan.  The listener stays open for the run so
// lost workers can re-dial.  This is what tests, the benchmark and
// `revisim_cli dist-explore --workers N` use.
check::ScheduleExploreResult dist_explore_schedules(
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const DistExploreOptions& options);

// Cluster mode: connects to `host:port` endpoints running `revisim_cli
// serve` and ships them `spec` to build.  Throws WireError if any endpoint
// is unreachable or rejects the hello.
check::ScheduleExploreResult dist_explore_remote(
    const check::CrashWorldSpec& spec,
    const std::vector<std::string>& endpoints,
    const DistExploreOptions& options);

}  // namespace revisim::dist
