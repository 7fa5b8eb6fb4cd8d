// A deliberately non-wait-free augmented snapshot: the watchdog's positive
// control.
//
// The real Block-Update (Algorithm 4) is wait-free - exactly 6 H-steps, 5
// when yielding, whatever the other processes do.  This mutant prefixes
// every Block-Update with a "quiescence wait": an inner Scan of the object.
// Scan's double collect retries until two consecutive collects agree on the
// update triples, so a stream of concurrent update batches keeps the
// mutant's Block-Update spinning - it is still non-blocking (some process
// always makes progress, and it terminates the moment its interferers stop
// or crash) and obstruction-free (solo it costs 3 + 6 = 9 own steps), but
// it is NOT wait-free: each interfering batch that lands inside the double
// collect adds 2 own steps (one republish update + one confirming scan).
//
// That profile is precisely what a per-operation step budget distinguishes.
// With a budget of 10, the real object can never trip the watchdog (6 <= 10
// on every schedule), the mutant passes solo (9 <= 10) and trips it under a
// single interfering batch (11 > 10) - and crashing the interferer before
// its update lands restores compliance, which is how the crash-closed
// explorer demonstrates that crashes excuse rather than create progress
// violations.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"

namespace revisim::aug {

class MutantAugmentedSnapshot final : public IAugmentedSnapshot {
 public:
  MutantAugmentedSnapshot(runtime::Scheduler& sched, std::string name,
                          std::size_t m, std::size_t f)
      : inner_(sched, std::move(name), m, f) {}

  [[nodiscard]] std::size_t components() const noexcept override {
    return inner_.components();
  }
  [[nodiscard]] std::size_t processes() const noexcept override {
    return inner_.processes();
  }
  [[nodiscard]] const OpLog& log() const noexcept override {
    return inner_.log();
  }
  [[nodiscard]] View peek_view() const override { return inner_.peek_view(); }

  runtime::Task<ScanResult> Scan(runtime::ProcessId me) override {
    return inner_.Scan(me);
  }

  runtime::Task<BlockUpdateResult> BlockUpdate(runtime::ProcessId me,
                                               Comps comps,
                                               Vals vals) override {
    // The fault: wait for quiescence before updating.  The inner Scan's
    // double collect is unbounded under concurrent update batches, so this
    // Block-Update's own-step count grows with interference.
    co_await inner_.Scan(me);
    co_return co_await inner_.BlockUpdate(me, std::move(comps),
                                          std::move(vals));
  }

 private:
  AugmentedSnapshot inner_;
};

}  // namespace revisim::aug
