#include "src/sim/driver.h"

namespace revisim::sim {

SimulationDriver::SimulationDriver(runtime::Scheduler& sched,
                                   const proto::Protocol& protocol,
                                   std::span<const Val> inputs, Options opt)
    : sched_(sched),
      protocol_(&protocol),
      inputs_(inputs.begin(), inputs.end()),
      n_(opt.n),
      d_(opt.d),
      part_() {
  const std::size_t f = inputs_.size();
  const std::size_t m = protocol.components();
  if (f == 0 || d_ > f) {
    throw std::invalid_argument("need f >= 1 and d <= f");
  }
  const std::size_t covering = f - d_;
  if (n_ == 0) {
    n_ = covering * m + d_;
  }
  part_ = Partition::make(n_, f, d_, m);
  if (opt.substrate == Substrate::kRegisters) {
    m_ = std::make_unique<aug::RegisterAugmentedSnapshot>(sched_, "M", m, f);
  } else {
    m_ = std::make_unique<aug::AugmentedSnapshot>(sched_, "M", m, f);
  }

  // Covering simulators first: the augmented snapshot favors smaller ids
  // (their Block-Updates yield less), exactly as §4 requires.
  covering_.reserve(covering);
  direct_outcomes_.resize(d_);
  direct_stats_.resize(d_);
  for (std::size_t i = 0; i < covering; ++i) {
    CoveringSimulator::Procs procs;
    procs.reserve(part_.groups[i].size());
    for (std::size_t gid : part_.groups[i]) {
      procs.push_back(protocol.make(gid, inputs_[i]));
    }
    covering_.push_back(std::make_unique<CoveringSimulator>(
        *m_, i, std::move(procs), part_.groups[i], opt.local_budget));
    sched_.spawn(covering_.back()->run(), "q" + std::to_string(i + 1));
  }
  for (std::size_t i = covering; i < f; ++i) {
    const std::size_t gid = part_.groups[i][0];
    sched_.spawn(
        run_direct_simulator(*m_, i, protocol.make(gid, inputs_[i]), gid,
                             direct_outcomes_[i - covering],
                             direct_stats_[i - covering]),
        "q" + std::to_string(i + 1));
  }
}

bool SimulationDriver::run(runtime::Adversary& adversary,
                           std::size_t max_steps) {
  return sched_.run(adversary, max_steps, /*throw_on_limit=*/false);
}

std::vector<Val> SimulationDriver::outputs() const {
  std::vector<Val> out;
  out.reserve(f());
  for (runtime::ProcessId i = 0; i < f(); ++i) {
    if (finished(i)) {
      out.push_back(outcome(i).output);
    }
  }
  return out;
}

const SimulatorOutcome& SimulationDriver::outcome(runtime::ProcessId i) const {
  if (i < covering_.size()) {
    return covering_[i]->outcome();
  }
  return direct_outcomes_.at(i - covering_.size());
}

const CoveringStats* SimulationDriver::covering_stats(
    runtime::ProcessId i) const {
  return i < covering_.size() ? &covering_[i]->stats() : nullptr;
}

const DirectStats* SimulationDriver::direct_stats(runtime::ProcessId i) const {
  return i >= covering_.size() ? &direct_stats_.at(i - covering_.size())
                               : nullptr;
}

std::span<const RevisionRecord> SimulationDriver::revisions(
    runtime::ProcessId i) const {
  if (i < covering_.size()) {
    return covering_[i]->revisions();
  }
  return {};
}

std::vector<RevisionRecord> SimulationDriver::all_revisions() const {
  std::vector<RevisionRecord> out;
  for (const auto& c : covering_) {
    out.insert(out.end(), c->revisions().begin(), c->revisions().end());
  }
  return out;
}

}  // namespace revisim::sim
