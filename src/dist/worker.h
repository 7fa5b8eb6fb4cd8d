// Distributed exploration worker: serves prefix-identified jobs from a
// coordinator socket by replaying the received prefix into freshly built
// worlds and running the shared explore_core DFS - POR, dedupe and the
// stack-splitting donation machinery unchanged.  One connection, one job at
// a time; the worker is single-threaded and pumps coordinator messages
// (cap credits, steal requests, heartbeat pings, shutdown) between
// executions via the abort probe, which drains the socket every 16th
// execution, so steal latency is bounded by that many executions.
//
// Liveness and recovery: the hello carries the heartbeat cadence; the
// worker answers every kPing with a kPong and treats coordinator silence
// past the timeout as a dead connection.  Run via run_worker (fork mode),
// a lost connection is not fatal: the worker re-dials the coordinator with
// jittered backoff, re-handshakes under its prior session token
// (HelloAck.resume) and keeps serving with its dedupe table intact; any
// in-flight job is abandoned (the coordinator re-queues it).
//
// With dedupe on, the worker dedupes against its own session StateTable,
// claim-then-walk as the in-process engine does at one thread, so the walk
// never waits on the wire.  First sightings are reported one way to the
// coordinator in fixed-size kFpBatch frames, flushed before every job
// result, for the run's exact distinct-state count and the cross-worker
// collision audit (see ReportingStore in worker.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/check/model_check.h"
#include "src/dist/fault_channel.h"

namespace revisim::dist {

// Serves jobs on a connected coordinator socket until a shutdown message or
// EOF; single-shot (no reconnect).  `factory` may be null: the
// coordinator's hello must then name a crash-world registry world
// (src/check/crash_worlds.h), which the worker builds itself - the
// cluster-mode path.  `log_path`, when nonempty, gets one line per
// protocol event (CI failure artifacts).  `faults`, when armed, perturbs
// the worker's outbound (W->C) sends.
void serve_connection(
    int fd,
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const std::string& log_path = {}, const FaultPlan& faults = {});

struct WorkerOptions {
  std::string host;
  std::uint16_t port = 0;
  std::string log_path;
  // How long a lost connection is worth re-dialing (0 = give up at once:
  // single connection, like serve_connection).
  std::uint32_t reconnect_window_ms = 0;
  // Jitters the reconnect backoff so a worker fleet does not re-dial in
  // lockstep; conventionally the worker index.
  std::uint64_t seed = 0;
  // Outbound (W->C) fault plan; shared across reconnects of this worker,
  // so positional one-shot faults fire once per worker, not per dial.
  FaultPlan faults;
};

// Fork-mode worker entry: dials the coordinator, serves jobs, and on a
// lost connection re-dials within the reconnect window and resumes its
// session.  Returns a process exit code (0 = clean shutdown or
// coordinator EOF, nonzero = gave up reconnecting or never handshook).
int run_worker(
    const std::function<std::unique_ptr<check::ExplorableWorld>()>& factory,
    const WorkerOptions& options);

// `revisim_cli serve`: listens on host:port and serves one coordinator
// connection at a time, forever.  Worlds come from the registry; the
// REVISIM_FAULT_PLAN environment variable, when set, arms an outbound
// fault plan (see parse_fault_plan).  Returns only if the listener cannot
// be created (nonzero exit code).
int serve_forever(const std::string& host, std::uint16_t port);

}  // namespace revisim::dist
