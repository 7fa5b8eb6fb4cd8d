// Colorless task specifications and output validators (§2, "Tasks and
// Protocols").
//
// A colorless task is a triple (I, O, Delta): inputs and outputs are judged
// as *sets* (any process's input/output may be any other's), independent of
// the process count.  The validators below implement Delta membership for
// the paper's three running tasks and are used by every test, bench and the
// simulation driver to judge produced outputs.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/util/value.h"

namespace revisim::tasks {

struct Verdict {
  bool ok = true;
  std::string reason;

  static Verdict good() { return {}; }
  static Verdict bad(std::string why) { return {false, std::move(why)}; }
};

class ColorlessTask {
 public:
  virtual ~ColorlessTask() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  // Checks Delta(inputs) membership for a (possibly partial) output set.
  [[nodiscard]] virtual Verdict validate(std::span<const Val> inputs,
                                         const std::vector<Val>& outputs)
      const = 0;
};

// k-set agreement: at most k distinct outputs, each an input.  k = 1 is
// consensus.
class KSetAgreement final : public ColorlessTask {
 public:
  explicit KSetAgreement(std::size_t k) : k_(k) {}
  [[nodiscard]] std::string name() const override {
    return k_ == 1 ? "consensus" : std::to_string(k_) + "-set-agreement";
  }
  [[nodiscard]] Verdict validate(std::span<const Val> inputs,
                                 const std::vector<Val>& outputs) const override;
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
};

// epsilon-approximate agreement over fixed-point values: outputs pairwise
// within epsilon and inside [min input, max input].
class ApproxAgreementTask final : public ColorlessTask {
 public:
  // `slack` absorbs fixed-point floor rounding (units of real value).
  explicit ApproxAgreementTask(double epsilon, double slack = 1e-6)
      : epsilon_(epsilon), slack_(slack) {}
  [[nodiscard]] std::string name() const override {
    return "approximate-agreement(eps=" + std::to_string(epsilon_) + ")";
  }
  // Inputs are 32-bit fixed point (util/value.h); outputs are the protocol's
  // 33-bit fixed point.
  [[nodiscard]] Verdict validate(std::span<const Val> inputs,
                                 const std::vector<Val>& outputs) const override;
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

 private:
  double epsilon_;
  double slack_;
};

}  // namespace revisim::tasks
