// Covering simulator (§4.1-4.2, Algorithms 6-7).
//
// A covering simulator owns m simulated processes p_{i,1}..p_{i,m} and tries
// to construct a block update covering all m components of M.  Construct(r)
// recursively builds block updates to r components: it repeatedly obtains
// (r-1)-component block updates from Construct(r-1) and simulates them with
// M.Block-Update operations, until a constructed block update hits a set of
// components that an earlier *atomic* Block-Update (one that returned a view
// V instead of the yield symbol) already updated.  At that point the
// simulator *revises the past* of p_{i,r}: it locally simulates a solo
// execution of p_{i,r} assuming the contents of M are V, whose updates land
// only on components the matching block update covers (hidden steps), until
// p_{i,r} is poised to update a fresh component - extending the block update
// to r components.  Construct(m) plus a final locally simulated run of
// p_{i,1} after the full block overwrite yields the simulator's output
// (Algorithm 7).
#pragma once

#include <memory>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/protocols/sim_process.h"
#include "src/runtime/task.h"
#include "src/sim/types.h"

namespace revisim::sim {

struct CoveringStats {
  std::size_t scans = 0;
  std::size_t block_updates = 0;
  std::size_t yields = 0;      // Block-Updates that returned the yield symbol
  std::size_t revisions = 0;   // pasts revised
  std::size_t local_steps = 0; // locally simulated (hidden + final) steps
};

class CoveringSimulator {
 public:
  using Procs = std::vector<std::unique_ptr<proto::SimProcess>>;
  using Comps = std::vector<std::size_t>;

  // `procs` are p_{i,1}..p_{i,m} (fresh, all with the simulator's input);
  // `global_ids` are their ids in the simulated system.
  CoveringSimulator(aug::IAugmentedSnapshot& m, runtime::ProcessId me,
                    Procs procs, Comps global_ids, std::size_t local_budget);

  // Algorithm 7; the coroutine is the whole life of real process q_{me+1}.
  runtime::Task<void> run();

  [[nodiscard]] const SimulatorOutcome& outcome() const noexcept {
    return outcome_;
  }
  [[nodiscard]] const CoveringStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<RevisionRecord>& revisions() const noexcept {
    return revisions_;
  }

 private:
  struct LocalSimResult {
    std::vector<PoisedUpdate> hidden;
    std::optional<PoisedUpdate> final_update;
    std::optional<Val> output;
  };

  runtime::Task<ConstructOutcome> construct(std::size_t r);

  // Solo-simulates procs_[idx] on `base` (its own updates applied locally),
  // recording updates to `allowed` components as hidden steps, until it is
  // poised to update a component outside `allowed` or outputs.
  LocalSimResult simulate_locally(std::size_t idx, View base,
                                  const Comps& allowed);

  aug::IAugmentedSnapshot& m_;
  runtime::ProcessId me_;
  Procs procs_;
  Comps global_ids_;
  std::size_t local_budget_;
  std::size_t last_scan_op_ = 0;  // op id of the most recent M.Scan (delta)

  SimulatorOutcome outcome_;
  CoveringStats stats_;
  std::vector<RevisionRecord> revisions_;
};

}  // namespace revisim::sim
