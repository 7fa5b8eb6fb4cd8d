// Linearization of augmented-snapshot executions, per Section 3.3.
//
// The correctness proof of the paper *constructs* a linearization: a Scan
// linearizes at its confirming scan of H; the Update to component j with
// timestamp t (part of some Block-Update) linearizes at the first point
// where H contains a triple for j with timestamp >= t; Updates tied at one
// point are ordered by timestamp, then component.  This module recomputes
// that linearization from the recorded OpLog and *checks*, on the concrete
// execution:
//
//   * Lemma 11: an atomic Block-Update's Updates all linearize at its line-4
//     update X, consecutively, in component order;
//   * Lemma 12: every Update linearizes inside (line-2 scan, X];
//   * Corollary 15: every Scan returns exactly the fold of the Updates
//     linearized before it;
//   * Lemma 19: an atomic Block-Update returns the contents of M at a point
//     T between the previous atomic Update Z' and its own first Update Z,
//     with no Scan linearized in (T, Z) and only yielded Updates by other
//     processes in between;
//   * Theorem 20: a Block-Update yields only if a smaller-id process
//     appended update triples inside its execution interval.
//
// The simulation layer replays the returned linearized sequence against the
// simulated protocol (src/sim/replay.h), so this module is the bridge
// between real executions and the paper's intermediate executions (§4.3).
//
// The result borrows from the log: each op points at its Block-Update's
// timestamp or its Scan's returned view in the OpLog rather than copying
// them, so the log must outlive the result and stay unchanged while the
// result is read.
#pragma once

#include <string>
#include <vector>

#include "src/augmented/history.h"
#include "src/util/value.h"

namespace revisim::aug {

struct LinearizedOp {
  enum class Kind { kScan, kUpdate };
  Kind kind = Kind::kScan;
  std::size_t point = 0;   // step index of the linearization point
  std::size_t op_id = 0;   // owning Scan / Block-Update
  runtime::ProcessId process = 0;

  // Update fields.
  std::size_t position = 0;   // which Update of its Block-Update (call order)
  std::size_t component = 0;
  Val value = 0;
  const Timestamp* ts = nullptr;  // the Block-Update's, in the log
  bool from_atomic = false;  // owning Block-Update did not yield

  // Scan fields.
  const View* returned = nullptr;  // the Scan's, in the log
};

// The window of an atomic Block-Update (Lemma 19): T is a point whose
// contents the operation returned; Z is the sequence position of its first
// Update.  T is the latest valid point: the latest one at or after the
// previous atomic Update whose contents equal the returned view with no
// Scan in (T, Z).  Lemma 18 says windows of distinct atomic Block-Updates
// are pairwise disjoint; here that holds by construction, not by a check:
// the search for T stops at any atomic Update, so T never lies before the
// Z of an earlier atomic Block-Update (tests/windows_test.cpp asserts it).
struct Window {
  std::size_t op_id = 0;         // owning Block-Update
  std::size_t t_index = 0;       // sequence index of T (contents match here)
  std::size_t z_index = 0;       // sequence index of the first own Update
};

struct LinearizationResult {
  std::vector<LinearizedOp> ops;        // in linearization order
  std::vector<Window> windows;          // per atomic Block-Update, log order
  std::vector<std::string> violations;  // empty iff all §3.3 checks pass

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

// Computes the linearization of a (possibly partial) execution and runs the
// checks above.  `m` is the component count of the augmented snapshot.  The
// result borrows from `log` (see above).
[[nodiscard]] LinearizationResult linearize(const OpLog& log, std::size_t m);

}  // namespace revisim::aug
