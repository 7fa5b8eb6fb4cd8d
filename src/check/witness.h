// Replayable failure witnesses.
//
// When a checker or watchdog flags an execution, the schedule that produced
// it - including any injected crashes - is the whole proof.  A witness file
// serializes that proof in a versioned text format so the verdict survives
// the process that found it: a later binary (the test rerun, `revisim_cli
// replay`, a human with an editor) rebuilds the named world from the
// world registry, replays the schedule entry by entry, and re-derives
// the verdict deterministically.  Determinism of executions under a fixed
// schedule (the scheduler's core invariant) is what makes this sound.
//
// Format v2, line-oriented, '#' comments allowed:
//
//   revisim-witness v2
//   world aug-mutant:2,2,10
//   max_steps 64
//   max_crashes 2
//   verdict progress violation: q1's Block-Update took 11 own steps ...
//   schedule s0 s1 c1 s0 ...
//   end
//
// `world` holds the registry spec (src/check/worlds.h) verbatim; it is
// required, and a spec the registry refuses fails the parse.  Schedule
// entries: `s<pid>` is one step by process pid,
// `c<pid>` crashes it (0-based pids).  `verdict` holds the rest of the line
// verbatim (empty means the execution was accepted - useful for
// regression-pinning a passing run).  max_steps / max_crashes record the
// exploration options that found the witness; replay does not need them
// but tooling does.
//
// Every number and pid is decimal digits only (parse_decimal); a key may
// appear once, and an unknown key fails the parse naming its line.  Format
// v1 named the world by four keys (world, processes, components, budget);
// a v1 file is refused by name, never guessed at.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/check/worlds.h"
#include "src/runtime/trace.h"

namespace revisim::check {

struct Witness {
  std::string world;  // registry spec, e.g. "aug-bu:2,2,10"
  std::size_t max_steps = 0;
  std::size_t max_crashes = 0;
  std::string verdict;  // empty = accepted execution
  std::vector<runtime::ProcessId> schedule;  // may contain crash entries
};

// Serialization.  parse_witness throws std::invalid_argument naming the
// offending line, or the missing one; load_witness_file adds
// std::runtime_error for I/O.
[[nodiscard]] std::string to_text(const Witness& w);
[[nodiscard]] Witness parse_witness(const std::string& text);
void write_witness_file(const Witness& w, const std::string& path);
[[nodiscard]] Witness load_witness_file(const std::string& path);

// Replays the witness: rebuilds the world from the registry, applies every
// schedule entry, evaluates the verdict.  Throws std::invalid_argument if
// the schedule does not fit the world (bad pid, step on a finished or
// crashed process) - a witness from a different code version.
struct ReplayResult {
  std::optional<std::string> verdict;  // what the replayed world reported
  bool matches = false;                // == the recorded verdict
  std::size_t steps = 0;               // plain step entries applied
  std::size_t crashes = 0;             // crash entries applied
};
[[nodiscard]] ReplayResult replay_witness(const Witness& w);

}  // namespace revisim::check
