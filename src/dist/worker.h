// Distributed exploration worker: serves prefix-identified jobs from a
// coordinator socket by replaying the received prefix into freshly built
// worlds and running the shared explore_core DFS - dedupe and the
// stack-splitting donation machinery unchanged.  One connection, one job at
// a time; the worker is single-threaded and pumps coordinator messages
// (cap credits, steal requests, heartbeat pings, shutdown) between
// executions via the abort probe, which drains the socket every 16th
// execution, so steal latency is bounded by that many executions.
//
// The worker never dials: it listens, and the coordinator dials it - a
// `revisim_cli serve` instance and a fork-mode worker alike run serve()
// below.  A session is one connection.  The hello carries the heartbeat
// cadence; the worker answers every kPing with a kPong and treats
// coordinator silence past the timeout as a dead connection.  A lost
// connection abandons its in-flight job (the coordinator re-queues it) and
// the worker goes back to accepting; the coordinator's re-dial starts a
// fresh session with an empty dedupe table.
//
// With dedupe on, the worker dedupes against its session's own StateTable,
// claim-then-walk as the in-process engine does at one thread, so the walk
// never waits on the wire.  First sightings are reported one way to the
// coordinator in fixed-size kFpBatch frames, flushed before every job
// result, for the run's distinct-state count and the cross-worker
// collision audit (see ReportingStore in worker.cpp); reports still queued
// when a connection dies are lost with it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/check/model_check.h"
#include "src/dist/fault_channel.h"

namespace revisim::dist {

// Serves coordinator connections accepted on `listen_fd` (owned; closed on
// return), one at a time.  `factory` may be null: each hello must then name
// a registry world spec (src/check/worlds.h), which the worker
// builds itself.  `faults`, when armed, perturbs the worker's outbound
// (W->C) sends; it is one plan for the whole process, so a positional
// fault that fired on one connection stays disarmed on the next.
// `log_path`, when nonempty, gets one line per protocol event.
//
// `redial_window_ms` < 0 makes a standing server that serves one
// coordinator after another and never returns.  Otherwise serve() works
// for one run: it returns at kShutdown, or once no coordinator dials within
// `redial_window_ms` of a connection ending (the first dial may take up to
// 10 s longer).
void serve(int listen_fd,
           const std::function<std::unique_ptr<check::ExplorableWorld>()>&
               factory,
           FaultPlan faults, const std::string& log_path,
           int redial_window_ms);

// `revisim_cli serve`: listens on host:port and runs a standing serve().
// Worlds come from the registry; the REVISIM_FAULT_PLAN environment
// variable, when set, arms the outbound fault plan (see parse_fault_plan).
// Returns only if the plan or the listener is bad (nonzero exit code).
int serve_forever(const std::string& host, std::uint16_t port);

}  // namespace revisim::dist
