// Atomic registers, the model's most basic base objects (§2).
//
// TypedRegister<T> is the general model register (used by the from-register
// snapshot implementations, whose cells carry sequence numbers and embedded
// views); Register is the plain Val register with the paper's "bottom"
// initial value.
#pragma once

#include <string>

#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"
#include "src/util/value.h"

namespace revisim::mem {

template <typename T>
class TypedRegister : public util::Fingerprintable {
 public:
  TypedRegister(runtime::Scheduler& sched, std::string name, T initial = {})
      : sched_(sched),
        id_(sched.register_object(std::move(name))),
        value_(std::move(initial)) {
    sched.register_state_source(this);
  }

  // The register's canonical state is its value (the object id and name are
  // schema, fixed by the world factory's construction order).
  void fingerprint_into(util::StateSink& sink) const override {
    util::feed(sink, value_);
  }

  // One atomic read step.
  runtime::StepAwaiter<T> read() {
    return {sched_, [this] { return value_; }, id_, runtime::StepKind::kRead,
            {}};
  }

  // One atomic write step.
  runtime::StepAwaiter<void> write(T v) {
    return {sched_,
            [this, v = std::move(v)]() mutable { value_ = std::move(v); },
            id_, runtime::StepKind::kWrite, {}};
  }

  // Test-only peek outside any execution.
  [[nodiscard]] const T& peek() const noexcept { return value_; }

 private:
  runtime::Scheduler& sched_;
  std::size_t id_;
  T value_;
};

// Plain multi-writer Val register, initially "bottom".
class Register : public TypedRegister<std::optional<Val>> {
 public:
  Register(runtime::Scheduler& sched, std::string name,
           std::optional<Val> initial = std::nullopt)
      : TypedRegister(sched, std::move(name), initial) {}

  runtime::StepAwaiter<void> write(Val v) {
    return TypedRegister::write(std::optional<Val>(v));
  }
};

}  // namespace revisim::mem
