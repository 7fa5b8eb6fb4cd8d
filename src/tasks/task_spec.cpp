#include "src/tasks/task_spec.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace revisim::tasks {

Verdict KSetAgreement::validate(std::span<const Val> inputs,
                                const std::vector<Val>& outputs) const {
  std::set<Val> in(inputs.begin(), inputs.end());
  std::set<Val> out(outputs.begin(), outputs.end());
  if (out.size() > k_) {
    std::ostringstream why;
    why << out.size() << " distinct outputs > k = " << k_;
    return Verdict::bad(why.str());
  }
  for (Val y : out) {
    if (in.find(y) == in.end()) {
      return Verdict::bad("output " + std::to_string(y) +
                          " is not any process's input");
    }
  }
  return Verdict::good();
}

Verdict ApproxAgreementTask::validate(std::span<const Val> inputs,
                                      const std::vector<Val>& outputs) const {
  if (outputs.empty()) {
    return Verdict::good();
  }
  double in_min = 1e18;
  double in_max = -1e18;
  for (Val x : inputs) {
    in_min = std::min(in_min, from_fixed(x));
    in_max = std::max(in_max, from_fixed(x));
  }
  double out_min = 1e18;
  double out_max = -1e18;
  for (Val y : outputs) {
    const double v = static_cast<double>(y) / static_cast<double>(Val{2} << 32);
    out_min = std::min(out_min, v);
    out_max = std::max(out_max, v);
  }
  std::ostringstream why;
  if (out_max - out_min > epsilon_ + slack_) {
    why << "output spread " << (out_max - out_min) << " > eps = " << epsilon_;
    return Verdict::bad(why.str());
  }
  if (out_min < in_min - slack_ || out_max > in_max + slack_) {
    why << "outputs [" << out_min << ", " << out_max << "] escape inputs ["
        << in_min << ", " << in_max << "]";
    return Verdict::bad(why.str());
  }
  return Verdict::good();
}

}  // namespace revisim::tasks
