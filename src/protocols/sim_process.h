// Simulated processes (§2.1, Assumption 1).
//
// A process of the simulated system alternately performs scan and update
// operations on the m-component multi-writer snapshot M until a scan lets it
// output.  Every protocol Pi fed to the revisionist simulation is therefore a
// deterministic state machine: on_scan consumes the result of the pending
// scan, applies the local transition, and reports either the update the
// process is now poised to perform or its output.
//
// State machines are *copyable* (clone) and *serializable* (state_key).
// Copyability is what makes revising the past implementable: a covering
// simulator runs a copy of a process forward against hypothetical memory
// contents (§4.1).  Serialization gives the protocol model checker a
// canonical state encoding for exhaustive exploration with deduplication.
#pragma once

#include <memory>
#include <string>

#include "src/util/value.h"

namespace revisim::proto {

struct SimAction {
  enum class Kind { kUpdate, kOutput };
  Kind kind = Kind::kOutput;
  std::size_t component = 0;  // kUpdate: component of M to update
  Val value = 0;              // kUpdate: value to write
  Val output = 0;             // kOutput: decided value

  static SimAction make_update(std::size_t j, Val v) {
    SimAction a;
    a.kind = Kind::kUpdate;
    a.component = j;
    a.value = v;
    return a;
  }
  static SimAction make_output(Val y) {
    SimAction a;
    a.kind = Kind::kOutput;
    a.output = y;
    return a;
  }

  friend bool operator==(const SimAction&, const SimAction&) = default;
};

class SimProcess {
 public:
  virtual ~SimProcess() = default;

  // Performs the pending scan with result `view` and the local transition
  // that follows it.  Deterministic; mutates local state.
  virtual SimAction on_scan(const View& view) = 0;

  // Deep copy of the local state.
  [[nodiscard]] virtual std::unique_ptr<SimProcess> clone() const = 0;

  // Canonical encoding of the local state (model-checker hashing).
  [[nodiscard]] virtual std::string state_key() const = 0;
};

// A protocol: a recipe for building the n simulated processes over an
// m-component snapshot.
class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Number of components of M the protocol uses (its space, in registers).
  [[nodiscard]] virtual std::size_t components() const = 0;

  // Builds process p_{index+1} with the given input.
  [[nodiscard]] virtual std::unique_ptr<SimProcess> make(std::size_t index,
                                                         Val input) const = 0;
};

}  // namespace revisim::proto
