// E3 - Section 3.3 correctness of the augmented snapshot.
//
// Claim: on every execution, Scans and the Updates of atomic Block-Updates
// linearize per §3.3 (Lemmas 10-19): atomic blocks are consecutive at their
// line-4 update, scans return the fold of preceding updates, windows are
// scan-free and hold the returned view.  Runs a randomized sweep plus an
// exhaustive two-process schedule exploration.
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/model_check.h"
#include "src/check/worlds.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"

namespace {

using namespace revisim;
using aug::AugmentedSnapshot;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

Task<void> mixed(AugmentedSnapshot& m, ProcessId me, std::size_t rounds,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rounds; ++i) {
    if (rng() % 2 == 0) {
      co_await m.Scan(me);
    } else {
      std::vector<std::size_t> comps;
      std::vector<Val> vals;
      const std::size_t r = 1 + rng() % m.components();
      for (std::size_t j = 0; j < m.components() && comps.size() < r; ++j) {
        if (rng() % 2 == 0 || m.components() - j == r - comps.size()) {
          comps.push_back(j);
          vals.push_back(static_cast<Val>(rng() % 1000));
        }
      }
      co_await m.BlockUpdate(me, comps, vals);
    }
  }
}

}  // namespace

int main() {
  benchutil::header("E3: §3.3 linearization checks",
                    "Lemmas 10-19: all executions linearize; windows are "
                    "disjoint and scan-free");

  std::printf("\n  f  m  seeds  executions-checked  violations\n");
  bool ok = true;
  std::size_t total_checked = 0;
  for (std::size_t f = 2; f <= 5; ++f) {
    for (std::size_t mm = 2; mm <= 4; ++mm) {
      std::size_t violations = 0;
      const std::size_t seeds = 60;
      for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        Scheduler sched;
        AugmentedSnapshot m(sched, "M", mm, f);
        for (ProcessId p = 0; p < f; ++p) {
          sched.spawn(mixed(m, p, 6, seed * 31 + p), "q");
        }
        runtime::RandomAdversary adv(seed * 7919 + f * 13 + mm);
        sched.run(adv);
        auto lin = aug::linearize(m.log(), mm);
        if (!lin.ok()) {
          ++violations;
        }
        ++total_checked;
      }
      std::printf("  %zu  %zu  %5zu  %18zu  %zu\n", f, mm, seeds, seeds,
                  violations);
      benchutil::json_line("BENCH_linearization.json", "random-sweep",
                           {{"f", f},
                            {"m", mm},
                            {"seeds", seeds},
                            {"violations", violations}});
      ok = ok && violations == 0;
    }
  }
  benchutil::verdict(ok, std::to_string(total_checked) +
                             " random executions all linearized");

  // q1 Scans twice; q2 Block-Updates component 1, then Scans.
  auto res = check::explore_schedules(
      check::make_world_factory("aug-script:2,ss,u1s"));
  std::printf("\n  exhaustive 2-process exploration: %zu executions, %s\n",
              res.executions, res.ok() ? "all linearized" : "VIOLATION");
  benchutil::json_line("BENCH_linearization.json", "exhaustive-2proc",
                       {{"executions", res.executions},
                        {"exhausted", res.exhausted},
                        {"ok", res.ok()}});
  benchutil::verdict(res.ok() && res.exhausted,
                     "exhaustive schedule exploration clean");
  return (ok && res.ok()) ? 0 : 1;
}
