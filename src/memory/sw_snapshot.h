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
  // `opaque_footprint` opts out of precise access footprints.  The
  // augmented snapshot's H provider constructs its SWSnapshot opaque: every
  // H step's continuation appends to the shared operation log and reads the
  // global step counter as a clock, so H steps do not commute even on
  // distinct components (see augmented_snapshot.h).  Standalone snapshots
  // declare scan = read-all-components, update = write-own-component.
  SWSnapshot(runtime::Scheduler& sched, std::string name, std::size_t f,
             bool opaque_footprint = false)
      : sched_(sched),
        id_(sched.register_object(std::move(name))),
        opaque_(opaque_footprint),
        comps_(f) {
    sched.register_state_source(this);
  }

  [[nodiscard]] std::size_t components() const noexcept { return comps_.size(); }

  void fingerprint_into(util::StateSink& sink) const override {
    util::feed(sink, comps_);
  }

  runtime::StepAwaiter<std::vector<T>> scan() {
    return {sched_,
            [this] {
              sched_.note_access(id_, runtime::Footprint::kAllComponents,
                                 runtime::Footprint::Mode::kRead);
              return comps_;
            },
            id_, runtime::StepKind::kScan, {},
            opaque_
                ? runtime::Footprint::opaque_footprint()
                : runtime::Footprint::read(id_,
                                           runtime::Footprint::kAllComponents)};
  }

  // Replaces the caller's own component.  The model enforces the
  // single-writer discipline: writing another process's component is a
  // protocol bug, not an adversary move, so it throws.  The footprint is
  // computed at pose time, when current() is the posing (= executing)
  // process.
  runtime::StepAwaiter<void> update(T v) {
    const auto writer = sched_.current();
    return {sched_,
            [this, v = std::move(v)]() mutable {
              const auto w = sched_.current();
              if (w >= comps_.size()) {
                throw std::logic_error("sw-snapshot: writer out of range");
              }
              sched_.note_access(id_, static_cast<std::uint32_t>(w),
                                 runtime::Footprint::Mode::kWrite);
              comps_[w] = std::move(v);
            },
            id_, runtime::StepKind::kUpdate, {},
            opaque_ ? runtime::Footprint::opaque_footprint()
                    : runtime::Footprint::write(
                          id_, static_cast<std::uint32_t>(writer))};
  }

  [[nodiscard]] const std::vector<T>& peek() const noexcept {
    return comps_;
  }

 private:
  runtime::Scheduler& sched_;
  std::size_t id_;
  bool opaque_;
  std::vector<T> comps_;  // scans copy it on every step
};

}  // namespace revisim::mem
