// Shared types of the revisionist simulation (§4).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/trace.h"
#include "src/util/value.h"

namespace revisim::sim {

// A constructed block update: the processes p_{i,1}..p_{i,r} are poised to
// update comps[g] with vals[g] (g = 0..r-1).
struct BlockPlan {
  std::vector<std::size_t> comps;
  std::vector<Val> vals;

  [[nodiscard]] std::size_t size() const noexcept { return comps.size(); }
};

// Outcome of Construct(r): either a block plan, or a simulated process
// terminated with an output (then the simulator outputs it too).
struct ConstructOutcome {
  std::optional<Val> output;
  BlockPlan plan;
};

// (component, value) of an update a simulated process is poised at.
using PoisedUpdate = std::pair<std::size_t, Val>;

// One revision of the past (§4.1): immediately after the M.Scan with op id
// `at_scan_op`, the covering simulator locally simulated a solo execution of
// simulated process `revised_proc` (global id), assuming the contents of M
// were the view returned by the atomic Block-Update `used_block_update`.
// The hidden steps and the resulting poised update are recorded so the
// replay validator can cross-check its own recomputation.
struct RevisionRecord {
  std::size_t used_block_update = 0;  // op id of the atomic M.Block-Update
  std::size_t at_scan_op = 0;         // op id of the M.Scan delta
  std::size_t revised_proc = 0;       // global simulated process id
  std::vector<PoisedUpdate> hidden_updates;  // within the plan's comps
  std::optional<PoisedUpdate> final_update;  // nullopt: the process output
  std::optional<Val> early_output;           // set when the process output
};

// How a simulator finished.
struct SimulatorOutcome {
  Val output = 0;
  bool output_from_final_run = false;     // covering: via Construct(m)+beta,xi
  std::optional<std::size_t> early_proc;  // simulated process that output early
  BlockPlan final_beta;                   // covering, final run only
};

// Thrown when a local solo simulation exceeds its budget, i.e. the protocol
// fed to the simulation is not (x-)obstruction-free.
class SimulationDiverged : public std::runtime_error {
 public:
  explicit SimulationDiverged(const std::string& what)
      : std::runtime_error(what) {}
};

// Partition of the n simulated processes among the f simulators (§2.1):
// covering simulators get m processes each, direct simulators one.
struct Partition {
  using Group = std::vector<std::size_t>;
  std::vector<Group> groups;  // groups[i] = P_{i+1}

  static Partition make(std::size_t n, std::size_t f, std::size_t d,
                        std::size_t m) {
    if (d > f) {
      throw std::invalid_argument("d <= f required");
    }
    const std::size_t covering = f - d;
    if (covering * m + d > n) {
      throw std::invalid_argument(
          "not enough simulated processes: need (f-d)*m + d <= n");
    }
    Partition p;
    p.groups.reserve(f);
    std::size_t next = 0;
    for (std::size_t i = 0; i < covering; ++i) {
      Group g(m);
      for (std::size_t j = 0; j < m; ++j) {
        g[j] = next++;
      }
      p.groups.push_back(std::move(g));
    }
    for (std::size_t i = 0; i < d; ++i) {
      p.groups.push_back({next++});
    }
    return p;
  }
};

}  // namespace revisim::sim
