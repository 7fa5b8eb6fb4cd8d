// Core value model.
//
// Registers and snapshot components in both the simulated and the real system
// carry Val (a 64-bit integer).  Protocols that need structured values
// (round/value pairs, fixed-point reals) pack them into a Val with the
// helpers below; this keeps the whole object stack concrete, hashable and
// printable, which the model checker and the linearizer rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace revisim {

using Val = std::int64_t;

// A view of an m-component object: component j holds nullopt until the first
// update to j (the paper's initial value "bottom").
using View = std::vector<std::optional<Val>>;

// --- (round, value) pairs --------------------------------------------------
// Packs a 32-bit round and a 31-bit *non-negative* payload (negative
// values do not round-trip; every protocol in this library proposes
// non-negative values).  Packed Vals compare as integers in lexicographic
// (round, value) order, matching the paper's use of lexicographic pair
// maxima in racing protocols.

struct RoundVal {
  std::uint32_t round = 0;
  std::int32_t value = 0;

  friend auto operator<=>(const RoundVal&, const RoundVal&) = default;
};

constexpr Val pack_round_val(RoundVal rv) noexcept {
  return (static_cast<Val>(rv.round) << 31) |
         static_cast<Val>(static_cast<std::uint32_t>(rv.value) & 0x7fffffffu);
}

constexpr RoundVal unpack_round_val(Val v) noexcept {
  return RoundVal{static_cast<std::uint32_t>(v >> 31),
                  static_cast<std::int32_t>(v & 0x7fffffff)};
}

// --- fixed-point reals -----------------------------------------------------
// epsilon-approximate agreement works over [0,1]; 2^-32 resolution is far
// below any epsilon we sweep.

inline constexpr std::int64_t kFixedOne = std::int64_t{1} << 32;

constexpr Val to_fixed(double x) noexcept {
  return static_cast<Val>(x * static_cast<double>(kFixedOne));
}

constexpr double from_fixed(Val v) noexcept {
  return static_cast<double>(v) / static_cast<double>(kFixedOne);
}

// --- printing --------------------------------------------------------------

inline std::string to_string(const std::optional<Val>& v) {
  return v ? std::to_string(*v) : std::string("_");
}

// Direct string building: this sits on the step-detail path whenever trace
// recording is on, so it reserves once and appends instead of paying for an
// ostringstream per rendered view.
inline std::string to_string(const View& view) {
  std::string out;
  out.reserve(2 + 8 * view.size());
  out.push_back('[');
  for (std::size_t j = 0; j < view.size(); ++j) {
    if (j != 0) {
      out.push_back(' ');
    }
    if (view[j].has_value()) {
      out += std::to_string(*view[j]);
    } else {
      out.push_back('_');
    }
  }
  out.push_back(']');
  return out;
}

}  // namespace revisim
