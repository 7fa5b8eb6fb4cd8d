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
//   - The coordinator is the only side that dials: every worker, forked
//     or `revisim_cli serve`, listens.  First dial and re-dial take one
//     path through the event loop - a non-blocking connect, then
//     hello/ack in the slot's handshaking phase - so the loop never blocks
//     on either.  A lost connection is re-dialed every 100 ms within
//     reconnect_window_ms.  A session is one connection: the re-dialed
//     worker starts with an empty dedupe table, and first-sighting reports
//     it had not sent yet are lost, so states_seen is only a lower bound
//     after a fault.  An endpoint that never completed a handshake is not
//     re-dialed; the run fails with a WireError naming it.  In-flight
//     live-counter credit is zeroed on requeue, never double counted.
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
  // How long the coordinator keeps re-dialing a lost worker (every
  // 100 ms); a forked worker likewise exits once no coordinator dialed it
  // for this long.  0 disables reconnect: a lost connection is a lost
  // worker.
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
  // (re-seeded per worker slot), worker_faults is handed to forked workers
  // (re-seeded per worker) and perturbs their W->C sends.  Cluster workers
  // take theirs from REVISIM_FAULT_PLAN (see serve_forever).
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

// A worker's listening address: a `revisim_cli serve` instance, or the
// loopback listener of a forked worker.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

// Runs one exploration over the workers listening at `endpoints`, dialing
// each from the event loop and re-dialing lost ones.  `spec` names the
// registry world the workers must build; pass nullptr when every worker
// was forked from this process and owns the factory already.  Throws
// WireError naming the endpoint if one refuses its first dial or is lost
// before its first handshake completes.  A worker that rejects the hello
// (unknown world, say) is retired; with none left, the summary's error
// says why.
check::ScheduleExploreResult coordinate(const std::vector<Endpoint>& endpoints,
                                        const DistExploreOptions& options,
                                        const check::CrashWorldSpec* spec);

// Single-binary localhost mode: binds one loopback listener per worker,
// forks `options.workers` worker processes that each run serve()
// (src/dist/worker.h) on their own listener with the inherited factory,
// then coordinates the run over those endpoints, shuts the workers down
// and reaps them.  Fork happens before any coordinator thread starts, so
// the mode is safe under TSan.  The parent keeps no copy of the listeners,
// so a dead worker refuses the re-dial.  This is what tests, the benchmark
// and `revisim_cli dist-explore --workers N` use.
check::ScheduleExploreResult dist_explore_schedules(
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const DistExploreOptions& options);

// Cluster mode: dials `host:port` endpoints running `revisim_cli serve` and
// ships them `spec` to build.  Throws WireError naming the endpoint if one
// is malformed (the port must be 1-65535, in digits only), or as
// coordinate() does.
check::ScheduleExploreResult dist_explore_remote(
    const check::CrashWorldSpec& spec,
    const std::vector<std::string>& endpoints,
    const DistExploreOptions& options);

}  // namespace revisim::dist
