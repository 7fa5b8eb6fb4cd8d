#include "src/check/explore_merge.h"

#include <algorithm>
#include <unordered_map>

namespace revisim::check::detail {

bool key_less(const std::vector<runtime::ProcessId>& a,
              const std::vector<runtime::ProcessId>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

ScheduleExploreResult merge_job_results(std::vector<MergeJob>& jobs,
                                        std::uint64_t cap,
                                        std::size_t attempts,
                                        const std::string& unfinished_error) {
  std::sort(jobs.begin(), jobs.end(), [](const MergeJob& a, const MergeJob& b) {
    return key_less(*a.key, *b.key);
  });

  // Completed-work telemetry first (see the header contract): these attach
  // to every return path below, including partial summaries.
  ScheduleExploreResult res;
  for (const MergeJob& j : jobs) {
    if (j.state == MergeJob::State::kDone) {
      res.subtrees_pruned += j.result->subtrees_pruned;
      res.por_skipped += j.result->por_skipped;
      res.dependent_wakeups += j.result->dependent_wakeups;
      res.footprint_bytes += j.result->footprint_bytes;
      res.dedupe_disabled_adaptively |= j.result->dedupe_disabled;
    }
  }

  // Serial replay accounting over the sorted regions.
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const MergeJob& j = jobs[i];
    if (j.state == MergeJob::State::kFailed) {
      // The job threw past its retry budget (or donated mid-failure).
      // Everything before it merged normally; report the partial summary
      // instead of rethrowing.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      res.error = "subtree job failed after " + std::to_string(attempts) +
                  " attempt(s): " + *j.error;
      return res;
    }
    if (j.state != MergeJob::State::kDone) {
      // Never ran or was pre-skipped.  The merge returns strictly before
      // every record skipped for violation or cap reasons, so reaching one
      // here means the run lost the means to finish it: the wall-clock
      // limit expired, or (distributed) every worker disconnected.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      if (unfinished_error.empty()) {
        res.timed_out = true;
      } else {
        res.error = unfinished_error;
      }
      return res;
    }
    const SubtreeResult& jr = *j.result;
    const std::uint64_t n = jr.executions;
    if (jr.violation && cum + jr.violation_index <= cap) {
      res.executions = static_cast<std::size_t>(cum + jr.violation_index);
      res.violation = jr.violation;
      res.witness = jr.witness;
      return res;  // exhausted stays true, as in the serial explorer
    }
    if (cum + n >= cap) {
      // The serial walk reaches the cap inside (or exactly at the end of)
      // this region.  It is a truncation iff any work would have remained:
      // a violation past the cap, a locally truncated walk, executions
      // beyond the cap, or any later record (every region holds >= 1
      // execution).
      const bool truncated = jr.violation.has_value() || !jr.fully_explored ||
                             cum + n > cap || i + 1 < jobs.size();
      res.executions = static_cast<std::size_t>(cap);
      res.exhausted = !truncated;
      return res;
    }
    if (!jr.fully_explored) {
      // Below the cap only a wall-clock abort leaves a merged job partially
      // explored (violation- and cap-aborted records sit past the merge's
      // return point, handled above).
      res.executions = static_cast<std::size_t>(cum + n);
      res.exhausted = false;
      if (unfinished_error.empty()) {
        res.timed_out = true;
      } else {
        res.error = unfinished_error;
      }
      return res;
    }
    cum += n;
  }
  res.executions = static_cast<std::size_t>(cum);
  res.exhausted = true;
  return res;
}

std::vector<ResumeAction> plan_resume(const std::vector<ResumeJob>& jobs) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    index.emplace(jobs[i].id, i);
  }
  // covered[i]: some proper ancestor of i is not done (so i's region is
  // re-covered by that ancestor's re-run).  Memoized walk up the parent
  // chain; journals are append-only so chains are acyclic, but a depth
  // guard keeps corrupt input from spinning.
  enum : std::int8_t { kUnknown = -1, kNo = 0, kYes = 1 };
  std::vector<std::int8_t> covered(jobs.size(), kUnknown);
  auto resolve = [&](std::size_t start) {
    std::vector<std::size_t> chain;
    std::size_t i = start;
    std::int8_t verdict = kNo;
    while (covered[i] == kUnknown) {
      chain.push_back(i);
      if (!jobs[i].has_parent) {
        break;
      }
      const auto it = index.find(jobs[i].parent);
      if (it == index.end() || chain.size() > jobs.size()) {
        verdict = kYes;  // orphan or cycle: conservatively discard
        break;
      }
      const std::size_t p = it->second;
      if (covered[p] != kUnknown) {
        verdict = covered[p] == kYes || !jobs[p].done ? kYes : kNo;
        break;
      }
      if (!jobs[p].done) {
        verdict = kYes;
        // The parent itself still resolves against ITS ancestors; only the
        // children below it are settled.  Stop the chain here.
        break;
      }
      i = p;
    }
    for (const std::size_t c : chain) {
      covered[c] = verdict;
    }
  };
  std::vector<ResumeAction> plan(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    resolve(i);
    if (covered[i] == kYes) {
      plan[i] = ResumeAction::kDiscard;
    } else {
      plan[i] = jobs[i].done ? ResumeAction::kReuse : ResumeAction::kRerun;
    }
  }
  return plan;
}

}  // namespace revisim::check::detail
