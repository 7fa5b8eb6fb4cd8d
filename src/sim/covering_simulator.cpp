#include "src/sim/covering_simulator.h"

#include <algorithm>
#include <set>

namespace revisim::sim {

CoveringSimulator::CoveringSimulator(
    aug::IAugmentedSnapshot& m, runtime::ProcessId me, Procs procs,
    Comps global_ids, std::size_t local_budget)
    : m_(m),
      me_(me),
      procs_(std::move(procs)),
      global_ids_(std::move(global_ids)),
      local_budget_(local_budget) {
  if (procs_.size() != m_.components() ||
      global_ids_.size() != procs_.size()) {
    throw std::invalid_argument("covering simulator needs |P_i| = m");
  }
}

CoveringSimulator::LocalSimResult CoveringSimulator::simulate_locally(
    std::size_t idx, View base, const Comps& allowed) {
  LocalSimResult res;
  const std::set<std::size_t> allowed_set(allowed.begin(), allowed.end());
  for (std::size_t step = 0; step < local_budget_; ++step) {
    ++stats_.local_steps;
    proto::SimAction act = procs_[idx]->on_scan(base);
    if (act.kind == proto::SimAction::Kind::kOutput) {
      res.output = act.output;
      return res;
    }
    if (allowed_set.contains(act.component)) {
      // Hidden step: the update lands on a component the matching block
      // update will overwrite, so it stays invisible to everyone else.
      base.at(act.component) = act.value;
      res.hidden.emplace_back(act.component, act.value);
      continue;
    }
    res.final_update = PoisedUpdate{act.component, act.value};
    return res;
  }
  throw SimulationDiverged(
      "local solo simulation of p_" + std::to_string(global_ids_[idx] + 1) +
      " exceeded its budget; the protocol is not obstruction-free");
}

runtime::Task<ConstructOutcome> CoveringSimulator::construct(std::size_t r) {
  ConstructOutcome out;
  if (r == 1) {
    // Base case: one M.Scan simulating p_{i,1}'s pending scan.
    auto scan = co_await m_.Scan(me_);
    ++stats_.scans;
    last_scan_op_ = scan.op_id;
    proto::SimAction act = procs_[0]->on_scan(scan.view);
    if (act.kind == proto::SimAction::Kind::kOutput) {
      out.output = act.output;
      outcome_.early_proc = global_ids_[0];
      co_return out;
    }
    out.plan.comps.push_back(act.component);
    out.plan.vals.push_back(act.value);
    co_return out;
  }

  using CompSet = std::set<std::size_t>;
  struct AEntry {
    CompSet comps;
    View view;
    std::size_t op_id;
  };
  std::vector<AEntry> a;

  for (;;) {
    ConstructOutcome sub = co_await construct(r - 1);
    if (sub.output) {
      co_return sub;
    }
    CompSet key(sub.plan.comps.begin(), sub.plan.comps.end());
    const AEntry* match = nullptr;
    for (const AEntry& e : a) {
      if (e.comps == key) {
        match = &e;
        break;
      }
    }
    if (match != nullptr) {
      // Revise the past of p_{i,r} using the view of the matching atomic
      // Block-Update, immediately after the last M.Scan (delta).
      RevisionRecord rev;
      rev.used_block_update = match->op_id;
      rev.at_scan_op = last_scan_op_;
      rev.revised_proc = global_ids_[r - 1];
      LocalSimResult local =
          simulate_locally(r - 1, match->view, sub.plan.comps);
      ++stats_.revisions;
      rev.hidden_updates = local.hidden;
      rev.final_update = local.final_update;
      rev.early_output = local.output;
      revisions_.push_back(std::move(rev));
      if (local.output) {
        out.output = local.output;
        outcome_.early_proc = global_ids_[r - 1];
        co_return out;
      }
      out.plan = std::move(sub.plan);
      out.plan.comps.push_back(local.final_update->first);
      out.plan.vals.push_back(local.final_update->second);
      co_return out;
    }
    // Simulate the pending updates of p_{i,1}..p_{i,r-1} as one
    // M.Block-Update; remember it (with its view) when it was atomic.
    auto res = co_await m_.BlockUpdate(me_, std::move(sub.plan.comps),
                                       std::move(sub.plan.vals));
    ++stats_.block_updates;
    if (res.yielded) {
      ++stats_.yields;
    } else {
      a.push_back(AEntry{std::move(key), std::move(res.view), res.op_id});
    }
  }
}

runtime::Task<void> CoveringSimulator::run() {
  ConstructOutcome out = co_await construct(m_.components());
  if (out.output) {
    outcome_.output = *out.output;
    outcome_.output_from_final_run = false;
    co_return;
  }
  // Algorithm 7: locally apply the full block update beta (it overwrites
  // every component of M) and p_{i,1}'s terminating solo execution after it.
  View w(m_.components());
  for (std::size_t g = 0; g < out.plan.size(); ++g) {
    w.at(out.plan.comps[g]) = out.plan.vals[g];
  }
  auto xi_runner = procs_[0]->clone();
  for (std::size_t step = 0; step < local_budget_; ++step) {
    ++stats_.local_steps;
    proto::SimAction act = xi_runner->on_scan(w);
    if (act.kind == proto::SimAction::Kind::kOutput) {
      outcome_.output = act.output;
      outcome_.output_from_final_run = true;
      outcome_.final_beta = std::move(out.plan);
      co_return;
    }
    w.at(act.component) = act.value;
  }
  throw SimulationDiverged(
      "final solo run of p_" + std::to_string(global_ids_[0] + 1) +
      " exceeded its budget; the protocol is not obstruction-free");
}

}  // namespace revisim::sim
