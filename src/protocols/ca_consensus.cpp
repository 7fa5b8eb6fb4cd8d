#include "src/protocols/ca_consensus.h"

#include <algorithm>
#include <optional>

namespace revisim::proto {

Val pack_ca(const CAEntry& e) noexcept {
  return (static_cast<Val>(e.round) << 36) | (static_cast<Val>(e.phase) << 34) |
         (static_cast<Val>(e.grade) << 33) |
         static_cast<Val>(static_cast<std::uint32_t>(e.value));
}

CAEntry unpack_ca(Val v) noexcept {
  CAEntry e;
  e.round = static_cast<std::uint32_t>((v >> 36) & 0xffffff);
  e.phase = static_cast<std::uint8_t>((v >> 34) & 0x3);
  e.grade = static_cast<std::uint8_t>((v >> 33) & 0x1);
  e.value = static_cast<std::int32_t>(static_cast<std::uint32_t>(v & 0xffffffff));
  return e;
}

namespace {

class CAProcess final : public SimProcess {
 public:
  CAProcess(std::vector<std::size_t> member_comps, std::size_t my_comp,
            Val input)
      : members_(std::move(member_comps)),
        my_comp_(my_comp),
        round_(1),
        value_(static_cast<std::int32_t>(input)) {}

  SimAction on_scan(const View& view) override {
    std::vector<CAEntry> entries = decode(view);

    // Jump to the highest visible round, adopting by priority
    // phase-2-clean > phase-2-dirty > phase-1 (ties: largest value).
    std::uint32_t rmax = 0;
    for (const CAEntry& e : entries) {
      rmax = std::max(rmax, e.round);
    }
    if (rmax > round_) {
      round_ = rmax;
      value_ = adopt_value(entries, rmax);
      stage_ = Stage::kInit;
    }

    switch (stage_) {
      case Stage::kInit:
        stage_ = Stage::kSentPhase1;
        return SimAction::make_update(my_comp_,
                                 pack_ca(CAEntry{round_, 1, 0, value_}));

      case Stage::kSentPhase1: {
        // Phase-1 collect: a round-r entry of either phase carries its
        // owner's round-r proposal.
        bool uniform = true;
        for (const CAEntry& e : entries) {
          if (e.round == round_ && e.value != value_) {
            uniform = false;
            break;
          }
        }
        grade_ = uniform ? 1 : 0;
        stage_ = Stage::kSentPhase2;
        return SimAction::make_update(my_comp_,
                                 pack_ca(CAEntry{round_, 2, grade_, value_}));
      }

      case Stage::kSentPhase2: {
        // Phase-2 collect: decide iff every round-r phase-2 entry is clean
        // with one value; otherwise adopt a clean value if any and advance.
        bool all_clean = true;
        std::optional<std::int32_t> clean_val;
        // The entries agree iff there is one and all carry `common`.
        std::size_t seen = 0;
        std::int32_t common = 0;
        bool agree = true;
        for (const CAEntry& e : entries) {
          if (e.round != round_ || e.phase != 2) {
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
          return SimAction::make_output(common);
        }
        if (clean_val) {
          value_ = *clean_val;
        }
        round_ += 1;
        stage_ = Stage::kSentPhase1;
        return SimAction::make_update(my_comp_,
                                 pack_ca(CAEntry{round_, 1, 0, value_}));
      }
    }
    return SimAction::make_output(value_);  // unreachable
  }

  [[nodiscard]] std::unique_ptr<SimProcess> clone() const override {
    return std::make_unique<CAProcess>(*this);
  }

  [[nodiscard]] std::string state_key() const override {
    return "C" + std::to_string(round_) + "." +
           std::to_string(static_cast<int>(stage_)) + "." +
           std::to_string(grade_) + "v" + std::to_string(value_);
  }

 private:
  enum class Stage : std::uint8_t { kInit, kSentPhase1, kSentPhase2 };

  [[nodiscard]] std::vector<CAEntry> decode(const View& view) const {
    std::vector<CAEntry> out;
    for (std::size_t j : members_) {
      if (view.at(j)) {
        out.push_back(unpack_ca(*view[j]));
      }
    }
    return out;
  }

  static std::int32_t adopt_value(const std::vector<CAEntry>& entries,
                                  std::uint32_t round) {
    int best_rank = -1;
    std::int32_t best_val = 0;
    for (const CAEntry& e : entries) {
      if (e.round != round) {
        continue;
      }
      int rank = (e.phase == 2) ? (e.grade == 1 ? 2 : 1) : 0;
      if (rank > best_rank ||
          (rank == best_rank && e.value > best_val)) {
        best_rank = rank;
        best_val = e.value;
      }
    }
    return best_val;
  }

  std::vector<std::size_t> members_;  // components of my group's processes
  std::size_t my_comp_;
  std::uint32_t round_;
  std::int32_t value_;
  std::uint8_t grade_ = 0;
  Stage stage_ = Stage::kInit;
};

}  // namespace

std::unique_ptr<SimProcess> CAConsensus::make(std::size_t index,
                                              Val input) const {
  std::vector<std::size_t> members(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    members[j] = j;
  }
  return std::make_unique<CAProcess>(std::move(members), index, input);
}

std::unique_ptr<SimProcess> GroupedKSet::make(std::size_t index,
                                              Val input) const {
  std::vector<std::size_t> members;
  for (std::size_t j = index % k_; j < n_; j += k_) {
    members.push_back(j);
  }
  return std::make_unique<CAProcess>(std::move(members), index, input);
}

}  // namespace revisim::proto
