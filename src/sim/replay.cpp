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

}  // namespace

ReplayReport validate_simulation(const SimulationDriver& driver) {
  return validate_simulation(driver, driver.all_revisions());
}

ReplayReport validate_simulation(const SimulationDriver& driver,
                                 const std::vector<RevisionRecord>& revisions) {
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
  // of each Block-Update, and the revision that used it.
  std::size_t bu_ids = 0;
  for (const auto& b : log.block_updates) {
    bu_ids = std::max(bu_ids, b.op_id + 1);
  }
  std::vector<const aug::BlockUpdateOpRecord*> bu_by_id(bu_ids, nullptr);
  for (const auto& b : log.block_updates) {
    bu_by_id[b.op_id] = &b;
  }
  std::vector<const RevisionRecord*> rev_by_bu(bu_ids, nullptr);
  for (const auto& r : revisions) {
    const std::size_t id = r.used_block_update;
    if (id >= bu_ids || bu_by_id[id] == nullptr) {
      violate("a revision used op#" + std::to_string(id) +
              ", which is not a Block-Update of the log");
    } else if (rev_by_bu[id] != nullptr) {
      violate("two revisions used Block-Update#" + std::to_string(id));
    } else {
      rev_by_bu[id] = &r;
    }
  }

  // Prefix contents (no hidden steps): prefix[t] = contents after first t
  // ops.  Only the insertion points of revisions read them.
  std::vector<View> prefix;
  if (!revisions.empty()) {
    prefix.resize(ops.size() + 1);
    prefix[0] = View(m);
    for (std::size_t t = 0; t < ops.size(); ++t) {
      prefix[t + 1] = prefix[t];
      if (ops[t].kind == aug::LinearizedOp::Kind::kUpdate) {
        prefix[t + 1].at(ops[t].component) = ops[t].value;
      }
    }
  }

  // Choose an insertion point for every used atomic Block-Update: the latest
  // t in (previous atomic update .. first own update] where the contents
  // equal the view the revision used and no Scan follows before the block.
  // Each window starts past the previous block's first update, so the
  // points come out strictly increasing: insert_at is sorted by t.
  std::vector<std::pair<std::size_t, const RevisionRecord*>> insert_at;
  {
    std::size_t last_atomic_end = 0;  // index just past the last atomic update
    std::vector<bool> first_seen(bu_ids, false);
    for (std::size_t z = 0; z < ops.size(); ++z) {
      const auto& op = ops[z];
      if (op.kind != aug::LinearizedOp::Kind::kUpdate || !op.from_atomic) {
        continue;
      }
      if (first_seen.at(op.op_id)) {
        last_atomic_end = z + 1;
        continue;  // only the first update of each block starts a window
      }
      first_seen[op.op_id] = true;
      if (const RevisionRecord* rev = rev_by_bu.at(op.op_id)) {
        const aug::BlockUpdateOpRecord* bu = bu_by_id.at(op.op_id);
        bool placed = false;
        for (std::size_t t = z + 1; t-- > last_atomic_end;) {
          bool scan_between = false;
          for (std::size_t i = t; i < z; ++i) {
            if (ops[i].kind == aug::LinearizedOp::Kind::kScan) {
              scan_between = true;
              break;
            }
          }
          if (!scan_between && prefix[t] == bu->returned) {
            assert(insert_at.empty() || insert_at.back().first < t);
            insert_at.emplace_back(t, rev);
            placed = true;
            break;
          }
        }
        if (!placed) {
          violate("no window point for revision using Block-Update#" +
                  std::to_string(op.op_id));
        }
      }
      last_atomic_end = z + 1;
    }
  }
  if (!report.ok()) {
    return report;
  }

  // Fresh replicas of the simulated system.
  const std::size_t n = driver.n();
  std::vector<std::unique_ptr<proto::SimProcess>> replica(n);
  std::vector<std::optional<PoisedUpdate>> pending(n);
  std::vector<std::optional<Val>> produced(n);
  for (std::size_t i = 0; i < part.groups.size(); ++i) {
    for (std::size_t gid : part.groups[i]) {
      replica[gid] = driver.protocol().make(gid, driver.inputs()[i]);
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
      ++report.revisions_validated;
      std::size_t hidden_idx = 0;
      const std::size_t budget = rev->hidden_updates.size() + 2;
      for (std::size_t step = 0; step < budget; ++step) {
        if (produced[p]) {
          violate("revised p_" + std::to_string(p + 1) +
                  " already output before its revision");
          break;
        }
        proto::SimAction act = replica[p]->on_scan(contents);
        if (act.kind == proto::SimAction::Kind::kOutput) {
          if (!rev->early_output || *rev->early_output != act.output) {
            violate("hidden run of p_" + std::to_string(p + 1) +
                    " output " + std::to_string(act.output) +
                    " but the simulator recorded a different ending");
          }
          produced[p] = act.output;
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
          pending[p] = PoisedUpdate{act.component, act.value};
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
      if (op.returned != contents) {
        violate("Scan#" + std::to_string(op.op_id) + " returned " +
                to_string(op.returned) + " but replayed contents are " +
                to_string(contents));
        return report;
      }
      if (produced[p]) {
        violate("p_" + std::to_string(p + 1) + " scanned after outputting");
        return report;
      }
      if (pending[p]) {
        violate("p_" + std::to_string(p + 1) +
                " scanned while poised to update (alternation broken)");
        return report;
      }
      proto::SimAction act = replica[p]->on_scan(contents);
      if (act.kind == proto::SimAction::Kind::kOutput) {
        produced[p] = act.output;
      } else {
        pending[p] = PoisedUpdate{act.component, act.value};
      }
    } else {
      const std::size_t p = part.groups.at(sim).at(op.position);
      // Proposition 25: the applied update must be exactly the replica's
      // poised step.
      if (!pending[p] || pending[p]->first != op.component ||
          pending[p]->second != op.value) {
        std::ostringstream why;
        why << "Update by q" << sim + 1 << " for p_" << p + 1 << " applied "
            << fmt_update(op.component, op.value) << " but replica is ";
        if (pending[p]) {
          why << "poised at " << fmt_update(pending[p]->first,
                                            pending[p]->second);
        } else {
          why << "not poised to update";
        }
        violate(why.str());
        return report;
      }
      contents.at(op.component) = op.value;
      pending[p].reset();
    }
  }
  run_insertions(ops.size());

  // Final outcomes (Lemma 27).
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
      View w = contents;
      bool plan_ok = true;
      for (std::size_t g = 0; g < m; ++g) {
        const std::size_t p = group[g];
        if (!pending[p] || pending[p]->first != oc.final_beta.comps[g] ||
            pending[p]->second != oc.final_beta.vals[g]) {
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
      auto xi = replica[group[0]]->clone();
      bool matched = false;
      for (std::size_t step = 0; step < 1'000'000; ++step) {
        proto::SimAction act = xi->on_scan(w);
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
      if (!produced[p] || *produced[p] != oc.output) {
        violate("q" + std::to_string(i + 1) + " output " +
                std::to_string(oc.output) + " but replica p_" +
                std::to_string(p + 1) +
                (produced[p] ? " output " + std::to_string(*produced[p])
                             : std::string(" produced nothing")));
      }
    }
  }

  return report;
}

}  // namespace revisim::sim
