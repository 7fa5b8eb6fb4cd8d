#include "src/sim/direct_simulator.h"

namespace revisim::sim {

runtime::Task<void> run_direct_simulator(aug::IAugmentedSnapshot& m,
                                         runtime::ProcessId me,
                                         std::unique_ptr<proto::SimProcess> proc,
                                         std::size_t proc_id,
                                         SimulatorOutcome& outcome,
                                         DirectStats& stats) {
  for (;;) {
    auto scan = co_await m.Scan(me);
    ++stats.scans;
    proto::SimAction act = proc->on_scan(scan.view);
    if (act.kind == proto::SimAction::Kind::kOutput) {
      outcome.output = act.output;
      outcome.early_proc = proc_id;
      co_return;
    }
    aug::IAugmentedSnapshot::Comps comps{act.component};
    aug::IAugmentedSnapshot::Vals vals{act.value};
    co_await m.BlockUpdate(me, std::move(comps), std::move(vals));
    ++stats.block_updates;
  }
}

}  // namespace revisim::sim
