// Simulated-execution reconstruction and validation (§4.3-4.4).
//
// Lemma 26 of the paper proves that every real execution of the simulators
// corresponds to an execution of the protocol Pi in the simulated system,
// obtained by taking the linearized M.Scan/M.Update sequence (the
// "intermediate execution"), inserting each revision's hidden solo steps at
// a point inside the window of the atomic Block-Update whose view it used,
// and appending each covering simulator's final local run.  This module
// *checks* that theorem on concrete runs:
//
//   1. it computes the linearization (augmented/linearizer.h) and the block
//      decomposition;
//   2. it places every revision: the revision must use an atomic
//      Block-Update and follow a later completed Scan by the same simulator,
//      and it is inserted at the T of that Block-Update's window
//      (linearizer.h), the latest point where the contents of M equal the
//      view the revision used, with no Scan linearized between T and the
//      Block-Update (Lemma 19 shape).  A revision that cannot be placed is a
//      violation, so every revision given is replayed;
//   3. it replays the whole reconstructed sequence against fresh replicas of
//      the simulated processes, checking that every step a simulator applied
//      is exactly the step the replica takes (Proposition 25 / Lemma 26.2),
//      that every Scan returns the replayed contents of M, that hidden steps
//      match the simulator's local simulation, and that each simulator's
//      output equals what the replicas produce (Lemma 27);
//
// so a passing report certifies that the simulators' outputs are genuine
// outputs of Pi in a legal execution of the simulated system.
#pragma once

#include <string>
#include <vector>

#include "src/sim/driver.h"

namespace revisim::sim {

struct ReplayReport {
  std::vector<std::string> violations;
  std::size_t linearized_ops = 0;
  std::size_t hidden_steps_inserted = 0;
  std::size_t revisions_validated = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

// Validates the (possibly partial) execution recorded by the driver.
[[nodiscard]] ReplayReport validate_simulation(const SimulationDriver& driver);

// Variant with an explicit revision list, replacing the simulators' own
// records.  Exists so tests can prove the validator *rejects* tampered
// bookkeeping (a checker that cannot fail checks nothing).
[[nodiscard]] ReplayReport validate_simulation(
    const SimulationDriver& driver,
    const std::vector<RevisionRecord>& revisions);

}  // namespace revisim::sim
