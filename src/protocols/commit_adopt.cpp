#include "src/protocols/commit_adopt.h"

#include <optional>

namespace revisim::proto {
namespace {

// Component entry: (phase, grade, value) - one-shot, so no round field.
constexpr Val pack_entry(std::uint8_t phase, std::uint8_t grade,
                         std::int32_t v) {
  return (Val{phase} << 34) | (Val{grade} << 33) |
         static_cast<Val>(static_cast<std::uint32_t>(v));
}

struct Entry {
  std::uint8_t phase;
  std::uint8_t grade;
  std::int32_t value;
};

Entry unpack_entry(Val v) {
  return Entry{static_cast<std::uint8_t>((v >> 34) & 0x3),
               static_cast<std::uint8_t>((v >> 33) & 0x1),
               static_cast<std::int32_t>(static_cast<std::uint32_t>(v))};
}

class CAOneShot final : public SimProcess {
 public:
  CAOneShot(std::size_t my_comp, Val input)
      : my_comp_(my_comp), value_(static_cast<std::int32_t>(input)) {}

  SimAction on_scan(const View& view) override {
    switch (stage_) {
      case Stage::kInit:
        stage_ = Stage::kSentPhase1;
        return SimAction::make_update(my_comp_, pack_entry(1, 0, value_));
      case Stage::kSentPhase1: {
        // Phase-1 collect: every visible proposal (any phase carries its
        // owner's proposal).
        bool uniform = true;
        for (const auto& c : view) {
          if (c && unpack_entry(*c).value != value_) {
            uniform = false;
            break;
          }
        }
        grade_ = uniform ? 1 : 0;
        stage_ = Stage::kSentPhase2;
        return SimAction::make_update(my_comp_,
                                      pack_entry(2, grade_, value_));
      }
      case Stage::kSentPhase2: {
        bool all_clean = true;
        std::optional<std::int32_t> clean_val;
        // The entries agree iff there is one and all carry `common`.
        std::size_t seen = 0;
        std::int32_t common = 0;
        bool agree = true;
        for (const auto& c : view) {
          if (!c) {
            continue;
          }
          Entry e = unpack_entry(*c);
          if (e.phase != 2) {
            continue;
          }
          if (e.grade == 1) {
            clean_val = e.value;
          } else {
            all_clean = false;
          }
          if (seen++ == 0) {
            common = e.value;
          } else if (e.value != common) {
            agree = false;
          }
        }
        if (all_clean && seen > 0 && agree) {
          return SimAction::make_output(pack_ca_result(true, common));
        }
        return SimAction::make_output(
            pack_ca_result(false, clean_val.value_or(value_)));
      }
    }
    return SimAction::make_output(pack_ca_result(false, value_));
  }

  [[nodiscard]] std::unique_ptr<SimProcess> clone() const override {
    return std::make_unique<CAOneShot>(*this);
  }

  [[nodiscard]] std::string state_key() const override {
    return "ca" + std::to_string(static_cast<int>(stage_)) + "." +
           std::to_string(grade_) + "v" + std::to_string(value_);
  }

 private:
  enum class Stage : std::uint8_t { kInit, kSentPhase1, kSentPhase2 };
  std::size_t my_comp_;
  std::int32_t value_;
  std::uint8_t grade_ = 0;
  Stage stage_ = Stage::kInit;
};

}  // namespace

std::unique_ptr<SimProcess> CommitAdopt::make(std::size_t index,
                                              Val input) const {
  return std::make_unique<CAOneShot>(index, input);
}

}  // namespace revisim::proto
