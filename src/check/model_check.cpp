#include "src/check/model_check.h"

#include <stdexcept>
#include <string>

#include "src/check/explore_core.h"

namespace revisim::check {

void validate(const ScheduleExploreOptions& options) {
  if (options.max_steps == 0) {
    throw std::invalid_argument(
        "ScheduleExploreOptions: max_steps must be >= 1 (a depth bound of 0 "
        "explores nothing)");
  }
  if (options.max_crashes >= options.max_steps) {
    throw std::invalid_argument(
        "ScheduleExploreOptions: max_crashes (" +
        std::to_string(options.max_crashes) +
        ") must be < max_steps (" + std::to_string(options.max_steps) +
        "): every crash entry occupies a schedule slot");
  }
  if (options.dedupe_audit && !options.dedupe_states) {
    throw std::invalid_argument(
        "ScheduleExploreOptions: dedupe_audit requires dedupe_states");
  }
  if (options.dedupe_adaptive && !options.dedupe_states) {
    throw std::invalid_argument(
        "ScheduleExploreOptions: dedupe_adaptive requires dedupe_states");
  }
  if (options.dist_probe_interval < 1) {
    throw std::invalid_argument(
        "ScheduleExploreOptions: dist_probe_interval must be >= 1 (a worker "
        "that never pumps the control channel cannot hear aborts)");
  }
}

ScheduleExploreResult explore_schedules(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ScheduleExploreOptions& options) {
  validate(options);
  return detail::whole_tree_result(
      detail::explore_subtree(factory, {}, detail::subtree_options(options)));
}

}  // namespace revisim::check
