// Simulation driver: wires up the real system of Theorem 21.
//
// f real processes (f - d covering simulators with the smaller ids, d direct
// simulators) share one m-component augmented snapshot and simulate n
// processes running the protocol Pi in the simulated system.  The driver
// owns the object, the simulators and their logs, runs the real system under
// any adversary, and hands everything to the validator (replay.h), which
// reconstructs the corresponding simulated execution per Lemma 26.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/protocols/sim_process.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/covering_simulator.h"
#include "src/sim/direct_simulator.h"
#include "src/sim/types.h"

namespace revisim::sim {

class SimulationDriver {
 public:
  // Which implementation of the augmented snapshot the real system uses.
  enum class Substrate {
    kAtomicSnapshot,   // H = atomic single-writer snapshot (the paper's model)
    kRegisters,        // H = Afek et al. from plain registers
  };

  struct Options {
    // Simulated process count; 0 means the minimum (f-d)*m + d.
    std::size_t n = 0;
    // Number of direct simulators (the paper's d = x).
    std::size_t d = 0;
    // Budget for each local solo simulation (guards against non-
    // obstruction-free protocols).
    std::size_t local_budget = 200'000;
    Substrate substrate = Substrate::kAtomicSnapshot;
  };

  // `inputs[i]` is simulator q_{i+1}'s input (f = inputs.size()).
  SimulationDriver(runtime::Scheduler& sched, const proto::Protocol& protocol,
                   std::span<const Val> inputs, Options opt);
  SimulationDriver(runtime::Scheduler& sched, const proto::Protocol& protocol,
                   std::span<const Val> inputs)
      : SimulationDriver(sched, protocol, inputs, Options()) {}
  SimulationDriver(runtime::Scheduler& sched, const proto::Protocol& protocol,
                   std::initializer_list<Val> inputs, Options opt)
      : SimulationDriver(sched, protocol,
                         std::span<const Val>(inputs.begin(), inputs.size()),
                         opt) {}
  SimulationDriver(runtime::Scheduler& sched, const proto::Protocol& protocol,
                   std::initializer_list<Val> inputs)
      : SimulationDriver(sched, protocol, inputs, Options()) {}

  // Runs the real system to completion; returns false on step-limit cut.
  bool run(runtime::Adversary& adversary,
           std::size_t max_steps = runtime::Scheduler::kDefaultMaxSteps);

  [[nodiscard]] std::size_t f() const noexcept { return inputs_.size(); }
  [[nodiscard]] std::size_t m() const noexcept { return m_->components(); }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t direct() const noexcept { return d_; }
  [[nodiscard]] std::span<const Val> inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const Partition& partition() const noexcept { return part_; }
  [[nodiscard]] const proto::Protocol& protocol() const noexcept {
    return *protocol_;
  }
  [[nodiscard]] aug::IAugmentedSnapshot& snapshot() noexcept { return *m_; }
  [[nodiscard]] const aug::IAugmentedSnapshot& snapshot() const noexcept {
    return *m_;
  }
  [[nodiscard]] runtime::Scheduler& scheduler() noexcept { return sched_; }

  [[nodiscard]] bool finished(runtime::ProcessId i) const {
    return sched_.is_done(i);
  }
  // Outputs of the finished simulators.
  [[nodiscard]] std::vector<Val> outputs() const;
  [[nodiscard]] const SimulatorOutcome& outcome(runtime::ProcessId i) const;

  [[nodiscard]] const CoveringStats* covering_stats(runtime::ProcessId i) const;
  [[nodiscard]] const DirectStats* direct_stats(runtime::ProcessId i) const;
  // The revisions covering simulator q_{i+1} performed, in order (none for
  // a direct simulator), and a copy of all of them.
  [[nodiscard]] std::span<const RevisionRecord> revisions(
      runtime::ProcessId i) const;
  [[nodiscard]] std::vector<RevisionRecord> all_revisions() const;

 private:
  runtime::Scheduler& sched_;
  const proto::Protocol* protocol_;
  std::vector<Val> inputs_;
  std::size_t n_;
  std::size_t d_;
  Partition part_;
  std::unique_ptr<aug::IAugmentedSnapshot> m_;
  std::vector<std::unique_ptr<CoveringSimulator>> covering_;
  // Direct-simulator sinks, sized once (stable addresses).
  std::vector<SimulatorOutcome> direct_outcomes_;
  std::vector<DirectStats> direct_stats_;
};

}  // namespace revisim::sim
