// Vector timestamps (§3.2, "Auxiliary Procedures").
//
// A timestamp is an f-component vector of non-negative integers, one
// component per real process, ordered lexicographically.  Process q_{i+1}
// generates a new timestamp from the result h of a scan of H by taking
// t_j = #h_j for j != i and t_i = #h_i + 1, where #h_j counts the
// Block-Updates recorded in component j of h.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/fingerprint.h"

namespace revisim::aug {

class Timestamp {
 public:
  using Parts = std::vector<std::uint32_t>;

  Timestamp() = default;
  explicit Timestamp(Parts parts) : parts_(std::move(parts)) {}

  [[nodiscard]] bool empty() const noexcept { return parts_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return parts_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return parts_.at(i);
  }

  // Lexicographic order (the paper's "lexicographically larger").
  friend std::strong_ordering operator<=>(const Timestamp& a,
                                          const Timestamp& b) {
    return std::lexicographical_compare_three_way(
        a.parts_.begin(), a.parts_.end(), b.parts_.begin(), b.parts_.end());
  }
  friend bool operator==(const Timestamp&, const Timestamp&) = default;

  [[nodiscard]] std::string to_string() const;

  void fingerprint_into(util::StateSink& sink) const {
    util::feed(sink, parts_);
  }

 private:
  Parts parts_;
};

}  // namespace revisim::aug
