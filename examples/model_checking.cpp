// Using the library as a verification tool.
//
// Two checkers ship with the reproduction:
//  * the protocol model checker explores every configuration of a
//    simulated-system protocol (bounded depth, exact deduplication) - here
//    it proves the 2-register 2-process commit-adopt-based consensus safe
//    on the instance and *finds a concrete agreement-violating schedule*
//    for a racing protocol squeezed below the paper's bound;
//  * the schedule explorer enumerates every interleaving of the real
//    system - here it re-checks the augmented snapshot's §3.3 linearization
//    on every two-process schedule.
//
//   ./examples/model_checking
#include <cstdio>

#include "src/check/model_check.h"
#include "src/check/protocol_check.h"
#include "src/check/worlds.h"
#include "src/protocols/ca_consensus.h"
#include "src/protocols/racing_agreement.h"
#include "src/tasks/task_spec.h"

using namespace revisim;

int main() {
  // 1. Prove (instance-exhaustively) that the m = n consensus protocol is
  //    safe and obstruction-free on 2 processes.
  {
    proto::CAConsensus protocol(2);
    tasks::KSetAgreement consensus(1);
    check::ExploreOptions opt;
    opt.max_depth = 24;
    opt.solo_budget = 2'000;
    auto res = check::explore(protocol, {0, 1}, consensus, opt);
    std::printf("ca-consensus(n=2), m = 2 registers:\n");
    std::printf("  %zu states within depth %zu: safety %s, solo termination "
                "from every state %s\n\n",
                res.states_visited, opt.max_depth,
                res.safety_violation ? "VIOLATED" : "verified",
                res.termination_violation ? "VIOLATED" : "verified");
  }

  // 2. Find the counterexample below the bound.
  {
    proto::RacingAgreement starved(2, 1);  // 1 register for 2 processes
    tasks::KSetAgreement consensus(1);
    check::ExploreOptions opt;
    opt.max_depth = 30;
    opt.check_termination = false;
    auto res = check::explore(starved, {0, 1}, consensus, opt);
    std::printf("racing(n=2), m = 1 register (below the bound n = 2):\n");
    if (res.safety_violation) {
      std::printf("  violation found after %zu states:\n    %s\n\n",
                  res.states_visited, res.safety_violation->c_str());
    } else {
      std::printf("  unexpectedly clean\n\n");
      return 1;
    }
  }

  // 3. Exhaust every real-system schedule of two Block-Updates + Scans over
  //    the augmented snapshot and re-check §3.3 on each.  The world comes
  //    from the registry (src/check/worlds.h): q1 Block-Updates component 0
  //    and Scans, q2 does the same on component 1.
  {
    auto res = check::explore_schedules(
        check::make_world_factory("aug-script:2,u0s,u1s"));
    std::printf("augmented snapshot, 2 processes, every interleaving:\n");
    std::printf("  %zu complete executions, linearization checks %s\n",
                res.executions,
                res.ok() ? "all passed" : res.violation->c_str());
    return res.ok() ? 0 : 1;
  }
}
