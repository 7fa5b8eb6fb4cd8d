// Atomic single-writer snapshot object, the base object of the *real* system
// (§2.1).  Component i may only be updated by real process q_{i+1}; scans are
// atomic and return all f components.
//
// The component type is generic because the augmented snapshot stores
// structured per-process logs (update triples plus helping records) in its
// single-writer snapshot H.  A scan copies all f components, so those logs
// are immutable shared handles (aug::HComp): the copy is f pointers.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"

namespace revisim::mem {

template <typename T>
class SWSnapshot : public util::Fingerprintable {
 public:
  SWSnapshot(runtime::Scheduler& sched, std::string name, std::size_t f)
      : sched_(sched),
        id_(sched.register_object(std::move(name))),
        comps_(f) {
    sched.register_state_source(this);
  }

  [[nodiscard]] std::size_t components() const noexcept { return comps_.size(); }

  void fingerprint_into(util::StateSink& sink) const override {
    util::feed(sink, comps_);
  }

  runtime::StepAwaiter<std::vector<T>> scan() {
    return {sched_, [this] { return comps_; }, id_, runtime::StepKind::kScan,
            {}};
  }

  // Replaces the caller's own component.  The model enforces the
  // single-writer discipline: writing another process's component is a
  // protocol bug, not an adversary move, so it throws.
  runtime::StepAwaiter<void> update(T v) {
    return {sched_,
            [this, v = std::move(v)]() mutable {
              const auto w = sched_.current();
              if (w >= comps_.size()) {
                throw std::logic_error("sw-snapshot: writer out of range");
              }
              comps_[w] = std::move(v);
            },
            id_, runtime::StepKind::kUpdate, {}};
  }

  [[nodiscard]] const std::vector<T>& peek() const noexcept {
    return comps_;
  }

 private:
  runtime::Scheduler& sched_;
  std::size_t id_;
  std::vector<T> comps_;  // scans copy it on every step
};

}  // namespace revisim::mem
