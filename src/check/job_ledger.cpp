#include "src/check/job_ledger.h"

#include <utility>

namespace revisim::check::detail {

bool key_less(const std::vector<runtime::ProcessId>& a,
              const std::vector<runtime::ProcessId>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

namespace {

using Job = JobLedger::Job;

// The serial explorer's accounting over the key-sorted, non-cancelled
// records.  `attempts` is the per-job attempt budget, quoted for a failed
// record.  A record that never ran, or ran only partly, at or before the
// return point is work the run could not perform: timed_out.
ScheduleExploreResult replay_serial(const std::vector<const Job*>& order,
                                    std::uint64_t cap, std::size_t attempts) {
  // Completed-work telemetry first (see the contract at the top of
  // job_ledger.h): these attach to every return path below, including
  // partial summaries.
  ScheduleExploreResult res;
  for (const Job* j : order) {
    if (j->state == Job::kDone) {
      res.subtrees_pruned += j->result.subtrees_pruned;
      res.replay_steps_saved += j->result.replay_steps_saved;
    }
  }
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Job& j = *order[i];
    if (j.state == Job::kFailed) {
      // The job threw or was lost past its retry budget.  Everything
      // before it merged normally; report the partial summary instead of
      // rethrowing.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      res.error = "subtree job failed after " + std::to_string(attempts) +
                  " attempt(s): " + j.error;
      return res;
    }
    if (j.state != Job::kDone) {
      // Never ran or was pre-skipped.  The replay returns strictly before
      // every record skipped for violation or cap reasons, so reaching one
      // here means the run lost the means to finish it.
      res.executions = static_cast<std::size_t>(cum);
      res.exhausted = false;
      res.timed_out = true;
      return res;
    }
    const SubtreeResult& jr = j.result;
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
                             cum + n > cap || i + 1 < order.size();
      res.executions = static_cast<std::size_t>(cap);
      res.exhausted = !truncated;
      return res;
    }
    if (!jr.fully_explored) {
      // Below the cap only a wall-clock abort leaves a merged job partially
      // explored (violation- and cap-aborted records sit past the return
      // point, handled above).
      res.executions = static_cast<std::size_t>(cum + n);
      res.exhausted = false;
      res.timed_out = true;
      return res;
    }
    cum += n;
  }
  res.executions = static_cast<std::size_t>(cum);
  res.exhausted = true;
  return res;
}

}  // namespace

JobLedger::JobLedger(std::uint64_t cap, std::size_t job_retries, bool dedupe)
    : cap_(cap), job_retries_(job_retries), dedupe_(dedupe) {}

JobLedger::Job& JobLedger::insert(std::uint64_t id, Donation spec,
                                  Job* parent) {
  auto job = std::make_unique<Job>();
  job->id = id;
  job->key = spec.prefix;
  if (!spec.choices.empty()) {
    job->key.push_back(spec.choices[0]);
  }
  job->spec = std::move(spec);
  job->parent = parent;
  if (parent != nullptr) {
    parent->children.push_back(job.get());
  }
  reserve_id(id);
  ++pending_;
  jobs_.push_back(std::move(job));
  return *jobs_.back();
}

JobLedger::Job* JobLedger::readmit(std::uint64_t id,
                                   std::optional<std::uint64_t> parent,
                                   Donation spec, const SubtreeResult* done) {
  reserve_id(id);
  Job* up = nullptr;
  if (parent) {
    const auto it =
        std::find_if(jobs_.rbegin(), jobs_.rend(),
                     [&](const auto& j) { return j->id == *parent; });
    if (it == jobs_.rend() || (*it)->state != Job::kDone) {
      return nullptr;  // the parent was discarded, or re-runs
    }
    up = it->get();
  }
  Job& job = insert(id, std::move(spec), up);
  if (done != nullptr) {
    --pending_;
    ++running_;
    job.state = Job::kRunning;
    complete(job, SubtreeResult(*done));
  }
  return &job;
}

// Sum of live counters over non-cancelled records lex-before `key`: a lower
// bound on the serial execution count before that region.  Cancelled
// records are left out because an ancestor's re-run counts their region.
std::uint64_t JobLedger::bound_before(
    const std::vector<runtime::ProcessId>& key) const {
  std::uint64_t sum = 0;
  for (const auto& j : jobs_) {
    if (!j->cancelled && key_less(j->key, key)) {
      sum += j->live.load(std::memory_order_relaxed);
    }
  }
  return sum;
}

// The merge returns at or before a secured lex-earlier violation, and once
// cumulative executions reach the cap, which the bound lower-bounds.
bool JobLedger::unreadable(const Job& job) const {
  return job.cancelled ||
         (have_violation_ && key_less(violation_key_, job.key)) ||
         bound_before(job.key) >= cap_;
}

// Lex-least first: earlier regions finish earlier, which tightens every
// later job's cap bound and lets a violation cut the most work.
JobLedger::Job* JobLedger::claim(std::size_t worker, std::uint64_t& budget) {
  for (;;) {
    Job* best = nullptr;
    for (const auto& j : jobs_) {
      if (j->state == Job::kPending &&
          (best == nullptr || key_less(j->key, best->key))) {
        best = j.get();
      }
    }
    if (best == nullptr) {
      return nullptr;
    }
    --pending_;
    if (unreadable(*best)) {
      best->state = Job::kAborted;
      continue;
    }
    best->state = Job::kRunning;
    ++running_;
    best->live.store(0, std::memory_order_relaxed);
    if (best->donated && best->donor != worker && best->failures == 0) {
      ++steals_;  // a record counts once, on its first claim
    }
    budget = cap_ - bound_before(best->key);
    return best;
  }
}

JobLedger::Job* JobLedger::donate(Job& parent, Donation&& d,
                                  std::size_t worker) {
  if (parent.cancelled) {
    return nullptr;
  }
  Job& child = insert(next_id_, std::move(d), &parent);
  child.donor = worker;
  child.donated = true;
  child.no_dedupe = parent.no_dedupe;  // dedupe-off regions donate likewise
  return &child;
}

bool JobLedger::complete(Job& job, SubtreeResult&& result) {
  --running_;
  job.state = Job::kDone;
  if (job.cancelled) {
    return false;
  }
  job.live.store(result.executions, std::memory_order_relaxed);
  if (result.violation &&
      (!have_violation_ || key_less(job.key, violation_key_))) {
    have_violation_ = true;
    violation_key_ = job.key;
  }
  job.result = std::move(result);
  return true;
}

void JobLedger::cancel_descendants(Job& job, std::vector<Job*>& out) {
  for (Job* child : job.children) {
    if (!child->cancelled) {
      child->cancelled = true;
      child->live.store(0, std::memory_order_relaxed);
      if (child->state == Job::kPending) {
        child->state = Job::kAborted;
        --pending_;
      }
      out.push_back(child);
    }
    cancel_descendants(*child, out);
  }
}

std::vector<JobLedger::Job*> JobLedger::requeue_or_fail(
    Job& job, const std::string& why) {
  --running_;
  std::vector<Job*> cancelled;
  if (job.cancelled) {
    job.state = Job::kAborted;  // an ancestor's re-run covers it
  } else if (++job.failures > job_retries_) {
    job.state = Job::kFailed;
    job.error = why;
  } else {
    cancel_descendants(job, cancelled);
    job.state = Job::kPending;
    job.live.store(0, std::memory_order_relaxed);
    job.no_dedupe = dedupe_;
    ++pending_;
  }
  return cancelled;
}

ScheduleExploreResult JobLedger::merge(
    const std::string& unfinished_error) const {
  std::vector<const Job*> order;
  order.reserve(jobs_.size());
  for (const auto& j : jobs_) {
    if (!j->cancelled) {
      order.push_back(j.get());
    }
  }
  std::sort(order.begin(), order.end(), [](const Job* a, const Job* b) {
    return key_less(a->key, b->key);
  });
  ScheduleExploreResult res = replay_serial(order, cap_, job_retries_ + 1);
  res.jobs = jobs_.size();
  res.steals = steals_;
  if (!unfinished_error.empty() && !res.error) {
    // The work the replay found unfinished was lost, not timed out; and if
    // every record resolved before the poison landed (e.g. an audit
    // collision raced the last result), the numbers merged but no prune in
    // them is trustworthy.
    res.timed_out = false;
    res.error = unfinished_error;
    res.exhausted = false;
  }
  return res;
}

}  // namespace revisim::check::detail
