// Approximate agreement, healthy and starved (Sections 1, 4.6).
//
// First runs the n-register epsilon-approximate agreement protocol under an
// adversarial schedule and prints the convergence; then squeezes the same
// protocol into fewer registers and lets two simulators (Theorem 21(1))
// drive it wait-free, showing that the simulation's cost does not grow with
// 1/epsilon while the 2-process step lower bound L = 0.5 log3(1/eps) does -
// the engine behind the paper's floor(n/2)+1 space bound (Corollary 34).
//
//   ./examples/approx_agreement
#include <cstdio>

#include "src/bounds/bounds.h"
#include "src/protocols/approx_agreement.h"
#include "src/protocols/protocol_runner.h"
#include "src/runtime/adversary.h"
#include "src/sim/driver.h"
#include "src/tasks/task_spec.h"

using namespace revisim;

namespace {

double as_real(Val protocol_output) {
  return static_cast<double>(protocol_output) /
         static_cast<double>(Val{2} << 32);
}

}  // namespace

int main() {
  const double eps = 1e-3;

  // Part 1: the correct protocol (m = n = 4).
  {
    proto::ApproxAgreement protocol(4, 4, eps);
    proto::ProtocolRun run(protocol, {to_fixed(0.0), to_fixed(1.0),
                                      to_fixed(0.25), to_fixed(0.75)});
    run.run_random(/*seed=*/7, 1'000'000);
    std::printf("healthy %s:\n  outputs:", protocol.name().c_str());
    for (std::size_t i = 0; i < 4; ++i) {
      std::printf(" %.6f", as_real(*run.output(i)));
    }
    tasks::ApproxAgreementTask task(eps);
    auto v = task.validate(std::vector<Val>{to_fixed(0.0), to_fixed(1.0),
                                            to_fixed(0.25), to_fixed(0.75)},
                           run.outputs());
    std::printf("\n  within eps = %g and the input range: %s\n\n", eps,
                v.ok ? "yes" : v.reason.c_str());
  }

  // Part 2: the reduction.  Starve the protocol (m = 2 < n = 4) and let two
  // simulators run it wait-free; sweep epsilon to show the flat cost.
  std::printf("starved instance (m = 2, n = 4) under 2 covering simulators:\n");
  std::printf("  eps        L(eps)=0.5*log3(1/eps)   simulator H-steps\n");
  for (double e : {1e-2, 1e-4, 1e-8}) {
    proto::ApproxAgreement starved(4, 2, e);
    runtime::Scheduler sched;
    sim::SimulationDriver driver(sched, starved,
                                 {to_fixed(0.0), to_fixed(1.0)});
    runtime::RandomAdversary adversary(11);
    driver.run(adversary, 10'000'000);
    std::printf("  %-9g  %22.2f   q1=%zu q2=%zu\n", e,
                bounds::approx_step_lower_bound(e), sched.steps_taken(0),
                sched.steps_taken(1));
  }
  std::printf(
      "\nthe cost stays flat while L grows: a protocol this small cannot be\n"
      "correct once L exceeds the simulation bound (Corollary 34 gives\n"
      "m >= min{floor(n/2)+1, sqrt(log2(L/2))}).\n");
  return 0;
}
