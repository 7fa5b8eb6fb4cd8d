// The world registry: named, parameterized worlds behind one spec string.
//
// A failure witness must be replayable across binaries: the world an
// explorer flagged has to be rebuildable, bit-for-bit, by `revisim_cli
// replay` from nothing but the witness file.  Worlds therefore carry a spec
// string instead of closures.  Tests, benches, the CLI, witness files, the
// wire's kHello and the run journal all carry that string unchanged, and
// only this registry parses it.
//
// Grammar: `<name>:<param>,<param>,...`.  Each world fixes its parameter
// count (below; only sim-racing's substrate is optional, and aug-script
// takes one op word per process).  A numeric parameter is decimal digits
// only - no sign, space, prefix or exponent - and fits std::size_t
// (parse_decimal).
// make_world_factory throws std::invalid_argument naming the spec and the
// offending field on a malformed spec, and on one the world's constructor
// would reject, before any world is built.
//
// Worlds:
//
//   aug-bu:f,m,budget
//   aug-mutant:f,m,budget
//       f processes share one m-component augmented snapshot; process i
//       performs a single Block-Update writing 10*(i+1) to component
//       i mod m, monitored by a ProgressMonitor with own-step budget
//       `budget` per operation (src/check/watchdog.h).  The verdict flags
//       the first over-budget operation.  f, m, budget >= 1.
//       aug-bu is the real augmented snapshot (Algorithm 4).  It is
//       wait-free: every Block-Update takes exactly 6 own steps (5 when
//       yielding), so with budget >= 6 no schedule - crashes or not -
//       produces a violation.
//       aug-mutant is MutantAugmentedSnapshot, the non-wait-free positive
//       control: its Block-Update first waits for quiescence via an inner
//       Scan, so interference inflates its own-step count past any fixed
//       budget (9 solo, +2 per interfering update batch).
//
//   sim-racing:n,k,x,m[,atomic|registers]
//       The real system of Theorem 21: f = k+1 simulators, the last x of
//       them direct and the rest covering, simulating RacingAgreement(n, m)
//       under SimulationDriver with n simulated processes.  Simulator q_{i+1} has
//       input 10*(i+1).  The substrate of the simulators' augmented
//       snapshot is atomic (the default) or registers.  Requires m >= 1,
//       x <= k+1, n >= (k+1-x)*m + x (the partition minimum) and
//       10*(k+1) within a Val.  The inputs are built with each world, so
//       parsing stays O(spec length).  Verdict:
//       an execution that did not finish within the depth bound fails,
//       then the Lemma-26 validator (src/sim/replay.h) runs, then validity
//       (every output is some simulator's input).  The simulators' local
//       state is not fingerprinted, so fingerprint() throws
//       std::invalid_argument and dedupe_states is refused.
//
//   aug-script:m,ops,ops,...
//       One process per op word, on one m-component augmented snapshot
//       (m >= 1).  An op word is a nonempty sequence of
//         u<c>  a Block-Update of component c (c < m),
//         w     a Block-Update of every component 0..m-1,
//         s     a Scan.
//       Process p writes 10*(p+1)+i as its i-th written value, counting
//       from 0 over all its Block-Updates.  A process may write at most 9
//       values (so `w` needs m <= 9), which keeps every value distinct:
//       the linearizer matches Scan contents by value.  The verdict is the
//       §3.3 linearizer over the object's history, which accepts partial
//       executions too.  Example: `aug-script:2,s,u0s` - q1 Scans, q2
//       Block-Updates component 0 (value 20) and then Scans.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/check/model_check.h"

namespace revisim::check {

// A decimal count: one or more digits and nothing else, within
// std::size_t.  nullopt for anything else (empty, signs, spaces, trailing
// characters, overflow).  The witness parser reads its numbers with it too.
std::optional<std::size_t> parse_decimal(std::string_view text);

// Parses and validates `spec` (see the grammar above) and returns a factory
// building fresh, independent worlds, directly usable with every explorer.
std::function<std::unique_ptr<ExplorableWorld>()> make_world_factory(
    const std::string& spec);

}  // namespace revisim::check
