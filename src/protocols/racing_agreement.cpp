#include "src/protocols/racing_agreement.h"

#include <algorithm>
#include <optional>

namespace revisim::proto {
namespace {

class RacingProcess final : public SimProcess {
 public:
  explicit RacingProcess(Val input)
      : rv_{1, static_cast<std::int32_t>(input)} {}

  SimAction on_scan(const View& view) override {
    // Decode visible pairs.
    std::optional<RoundVal> top;  // lexicographic max pair
    for (const auto& c : view) {
      if (c) {
        RoundVal p = unpack_round_val(*c);
        if (!top || *top < p) {
          top = p;
        }
      }
    }
    if (top) {
      const std::uint32_t rm = top->round;
      // Smallest and largest value present at the top round, including my
      // own if I am there: more than one value is present iff they differ.
      std::int32_t vmin = top->value;
      std::int32_t vmax = top->value;
      auto note = [&](std::int32_t v) {
        vmin = std::min(vmin, v);
        vmax = std::max(vmax, v);
      };
      for (const auto& c : view) {
        if (c) {
          RoundVal p = unpack_round_val(*c);
          if (p.round == rm) {
            note(p.value);
          }
        }
      }
      if (rv_.round == rm) {
        note(rv_.value);
      }
      if (vmin != vmax) {
        // Same-round conflict: escalate with the largest conflicting value.
        rv_ = RoundVal{rm + 1, vmax};
      } else if (rm > rv_.round ||
                 (rm == rv_.round && vmax > rv_.value)) {
        rv_ = RoundVal{rm, vmax};  // adopt the leader
      }
    }
    // Decide on a uniform snapshot of my own pair.
    const Val mine = pack_round_val(rv_);
    for (std::size_t j = 0; j < view.size(); ++j) {
      if (!view[j] || *view[j] != mine) {
        return SimAction::make_update(j, mine);
      }
    }
    return SimAction::make_output(rv_.value);
  }

  [[nodiscard]] std::unique_ptr<SimProcess> clone() const override {
    return std::make_unique<RacingProcess>(*this);
  }

  [[nodiscard]] std::string state_key() const override {
    return "R" + std::to_string(rv_.round) + "v" + std::to_string(rv_.value);
  }

 private:
  RoundVal rv_;
};

}  // namespace

std::unique_ptr<SimProcess> RacingAgreement::make(std::size_t index,
                                                  Val input) const {
  (void)index;  // the protocol is anonymous
  return std::make_unique<RacingProcess>(input);
}

}  // namespace revisim::proto
