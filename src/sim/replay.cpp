#include "src/sim/replay.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

#include "src/augmented/linearizer.h"

namespace revisim::sim {
namespace {

std::string fmt_update(std::size_t comp, Val val) {
  return "update(c" + std::to_string(comp) + ", " + std::to_string(val) + ")";
}

// A simulated process of the replayed system: the replica, the update it
// is poised at, and its output once it produced one.
struct Replica {
  std::unique_ptr<proto::SimProcess> proc;
  std::optional<PoisedUpdate> pending;
  std::optional<Val> produced;
};

// Whether `op_id` names a completed Scan by the simulator that ran `bu`,
// invoked after it: the M.Scan a revision follows (§4.1).
bool scan_after(const aug::OpLog& log, std::size_t op_id,
                const aug::BlockUpdateOpRecord& bu) {
  if (op_id <= bu.op_id) {
    return false;
  }
  for (const auto& s : log.scans) {
    if (s.op_id == op_id) {
      return s.completed && s.process == bu.process;
    }
  }
  return false;
}

// The validator; `for_each_revision(visit)` calls visit on every revision
// record, which must stay valid until the call returns.
template <typename ForEachRevision>
ReplayReport validate(const SimulationDriver& driver,
                      ForEachRevision&& for_each_revision) {
  ReplayReport report;
  auto violate = [&report](const std::string& msg) {
    report.violations.push_back(msg);
  };

  const std::size_t m = driver.m();
  const aug::OpLog& log = driver.snapshot().log();
  aug::LinearizationResult lin = aug::linearize(log, m);
  for (const auto& v : lin.violations) {
    violate("linearizer: " + v);
  }
  if (!report.ok()) {
    return report;
  }
  const auto& ops = lin.ops;
  report.linearized_ops = ops.size();

  // Simulator owning each op, and the simulated process of each op:
  //   Scan by q_i          -> P_i[0]'s scan;
  //   Update position g    -> P_i[g]'s update.
  const Partition& part = driver.partition();

  // Tables indexed by op id, up to the largest Block-Update id: the record
  // of each Block-Update, and the revision that used it.  A revision must
  // use an atomic Block-Update, the only kind that returns a view, and
  // follow a later Scan by the same simulator.
  std::size_t bu_ids = 0;
  for (const auto& b : log.block_updates) {
    bu_ids = std::max(bu_ids, b.op_id + 1);
  }
  std::vector<const aug::BlockUpdateOpRecord*> bu_by_id(bu_ids, nullptr);
  for (const auto& b : log.block_updates) {
    bu_by_id[b.op_id] = &b;
  }
  std::vector<const RevisionRecord*> rev_by_bu(bu_ids, nullptr);
  std::size_t revisions = 0;
  for_each_revision([&](const RevisionRecord& r) {
    ++revisions;
    const std::size_t id = r.used_block_update;
    if (id >= bu_ids || bu_by_id[id] == nullptr) {
      violate("a revision used op#" + std::to_string(id) +
              ", which is not a Block-Update of the log");
      return;
    }
    if (rev_by_bu[id] != nullptr) {
      violate("two revisions used Block-Update#" + std::to_string(id));
      return;
    }
    rev_by_bu[id] = &r;
    const aug::BlockUpdateOpRecord& bu = *bu_by_id[id];
    if (!bu.completed || bu.yielded) {
      violate("a revision used Block-Update#" + std::to_string(id) +
              ", which returned no view (it " +
              (bu.completed ? "yielded" : "did not finish") + ")");
    }
    if (!scan_after(log, r.at_scan_op, bu)) {
      violate("a revision using Block-Update#" + std::to_string(id) +
              " follows op#" + std::to_string(r.at_scan_op) +
              ", which is not a later completed Scan by q" +
              std::to_string(bu.process + 1));
    }
  });
  if (!report.ok()) {
    return report;
  }

  // Insertion point of every revision: the T of its Block-Update's window
  // (Lemma 19), the latest point at or after the previous atomic Update
  // where the contents equal the view the revision used, with no Scan
  // before the block.  The linearizer accepted the log, so every atomic
  // Block-Update has a window, and every revision one insertion point.
  // Windows are disjoint (Lemma 18), so the points are distinct.
  std::vector<std::pair<std::size_t, const RevisionRecord*>> insert_at;
  insert_at.reserve(revisions);
  for (const aug::Window& w : lin.windows) {
    if (const RevisionRecord* rev = rev_by_bu[w.op_id]) {
      insert_at.emplace_back(w.t_index, rev);
    }
  }
  assert(insert_at.size() == revisions);
  std::sort(insert_at.begin(), insert_at.end());

  // Fresh replicas of the simulated system.
  std::vector<Replica> replicas(driver.n());
  for (std::size_t i = 0; i < part.groups.size(); ++i) {
    for (std::size_t gid : part.groups[i]) {
      replicas[gid].proc = driver.protocol().make(gid, driver.inputs()[i]);
    }
  }
  View contents(m);

  std::size_t next_insertion = 0;
  auto run_insertions = [&](std::size_t t) {
    for (; next_insertion < insert_at.size() &&
           insert_at[next_insertion].first == t;
         ++next_insertion) {
      const RevisionRecord* rev = insert_at[next_insertion].second;
      const aug::BlockUpdateOpRecord* bu = bu_by_id.at(rev->used_block_update);
      const std::size_t p = rev->revised_proc;
      Replica& replica = replicas[p];
      ++report.revisions_validated;
      std::size_t hidden_idx = 0;
      const std::size_t budget = rev->hidden_updates.size() + 2;
      for (std::size_t step = 0; step < budget; ++step) {
        if (replica.produced) {
          violate("revised p_" + std::to_string(p + 1) +
                  " already output before its revision");
          break;
        }
        proto::SimAction act = replica.proc->on_scan(contents);
        if (act.kind == proto::SimAction::Kind::kOutput) {
          if (!rev->early_output || *rev->early_output != act.output) {
            violate("hidden run of p_" + std::to_string(p + 1) +
                    " output " + std::to_string(act.output) +
                    " but the simulator recorded a different ending");
          }
          replica.produced = act.output;
          break;
        }
        const bool allowed =
            std::find(bu->comps.begin(), bu->comps.end(), act.component) !=
            bu->comps.end();
        if (allowed && hidden_idx < rev->hidden_updates.size()) {
          const auto& expect = rev->hidden_updates[hidden_idx++];
          if (expect.first != act.component || expect.second != act.value) {
            violate("hidden step mismatch for p_" + std::to_string(p + 1) +
                    ": replay " + fmt_update(act.component, act.value) +
                    " vs recorded " +
                    fmt_update(expect.first, expect.second));
            break;
          }
          contents.at(act.component) = act.value;
          ++report.hidden_steps_inserted;
          continue;
        }
        // Must be the final poised update outside the block's components.
        if (!rev->final_update || rev->final_update->first != act.component ||
            rev->final_update->second != act.value ||
            hidden_idx != rev->hidden_updates.size()) {
          violate("revision ending mismatch for p_" + std::to_string(p + 1));
        } else {
          replica.pending = PoisedUpdate{act.component, act.value};
        }
        break;
      }
    }
  };

  for (std::size_t t = 0; t < ops.size(); ++t) {
    run_insertions(t);
    if (!report.ok()) {
      return report;
    }
    const auto& op = ops[t];
    const std::size_t sim = op.process;
    if (op.kind == aug::LinearizedOp::Kind::kScan) {
      const std::size_t p = part.groups.at(sim)[0];
      Replica& replica = replicas[p];
      if (*op.returned != contents) {
        violate("Scan#" + std::to_string(op.op_id) + " returned " +
                to_string(*op.returned) + " but replayed contents are " +
                to_string(contents));
        return report;
      }
      if (replica.produced) {
        violate("p_" + std::to_string(p + 1) + " scanned after outputting");
        return report;
      }
      if (replica.pending) {
        violate("p_" + std::to_string(p + 1) +
                " scanned while poised to update (alternation broken)");
        return report;
      }
      proto::SimAction act = replica.proc->on_scan(contents);
      if (act.kind == proto::SimAction::Kind::kOutput) {
        replica.produced = act.output;
      } else {
        replica.pending = PoisedUpdate{act.component, act.value};
      }
    } else {
      const std::size_t p = part.groups.at(sim).at(op.position);
      std::optional<PoisedUpdate>& pending = replicas[p].pending;
      // Proposition 25: the applied update must be exactly the replica's
      // poised step.
      if (!pending || pending->first != op.component ||
          pending->second != op.value) {
        std::ostringstream why;
        why << "Update by q" << sim + 1 << " for p_" << p + 1 << " applied "
            << fmt_update(op.component, op.value) << " but replica is ";
        if (pending) {
          why << "poised at " << fmt_update(pending->first, pending->second);
        } else {
          why << "not poised to update";
        }
        violate(why.str());
        return report;
      }
      contents.at(op.component) = op.value;
      pending.reset();
    }
  }
  run_insertions(ops.size());

  // Final outcomes (Lemma 27).  Each final solo run is p_{i,1}'s own
  // replica's: nothing reads the replicas after it.
  View w;
  for (runtime::ProcessId i = 0; i < driver.f(); ++i) {
    if (!driver.finished(i)) {
      continue;
    }
    const SimulatorOutcome& oc = driver.outcome(i);
    if (oc.output_from_final_run) {
      // The simulator's processes must be poised to perform beta, which
      // overwrites all of M; then p_{i,1} runs solo to oc.output.
      const auto& group = part.groups.at(i);
      if (oc.final_beta.size() != m) {
        violate("q" + std::to_string(i + 1) + " final block is not full");
        continue;
      }
      w = contents;
      bool plan_ok = true;
      for (std::size_t g = 0; g < m; ++g) {
        const std::size_t p = group[g];
        const std::optional<PoisedUpdate>& pending = replicas[p].pending;
        if (!pending || pending->first != oc.final_beta.comps[g] ||
            pending->second != oc.final_beta.vals[g]) {
          violate("q" + std::to_string(i + 1) + ": p_" + std::to_string(p + 1) +
                  " is not poised to perform its step of beta");
          plan_ok = false;
          break;
        }
        w.at(oc.final_beta.comps[g]) = oc.final_beta.vals[g];
      }
      if (!plan_ok) {
        continue;
      }
      proto::SimProcess& xi = *replicas[group[0]].proc;
      bool matched = false;
      for (std::size_t step = 0; step < 1'000'000; ++step) {
        proto::SimAction act = xi.on_scan(w);
        if (act.kind == proto::SimAction::Kind::kOutput) {
          if (act.output != oc.output) {
            violate("q" + std::to_string(i + 1) + " output " +
                    std::to_string(oc.output) + " but replayed xi outputs " +
                    std::to_string(act.output));
          }
          matched = true;
          break;
        }
        w.at(act.component) = act.value;
      }
      if (!matched) {
        violate("q" + std::to_string(i + 1) +
                ": replayed final solo run does not terminate");
      }
    } else {
      // Early output by one of its simulated processes.
      if (!oc.early_proc) {
        violate("q" + std::to_string(i + 1) +
                " finished without a recorded source process");
        continue;
      }
      const std::size_t p = *oc.early_proc;
      const std::optional<Val>& produced = replicas[p].produced;
      if (!produced || *produced != oc.output) {
        violate("q" + std::to_string(i + 1) + " output " +
                std::to_string(oc.output) + " but replica p_" +
                std::to_string(p + 1) +
                (produced ? " output " + std::to_string(*produced)
                          : std::string(" produced nothing")));
      }
    }
  }

  return report;
}

}  // namespace

ReplayReport validate_simulation(const SimulationDriver& driver) {
  return validate(driver, [&driver](const auto& visit) {
    for (runtime::ProcessId i = 0; i < driver.f(); ++i) {
      for (const RevisionRecord& r : driver.revisions(i)) {
        visit(r);
      }
    }
  });
}

ReplayReport validate_simulation(const SimulationDriver& driver,
                                 const std::vector<RevisionRecord>& revisions) {
  return validate(driver, [&revisions](const auto& visit) {
    for (const RevisionRecord& r : revisions) {
      visit(r);
    }
  });
}

}  // namespace revisim::sim
