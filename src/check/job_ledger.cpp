#include "src/check/job_ledger.h"

#include <utility>

#include "src/check/explore_merge.h"

namespace revisim::check::detail {

JobLedger::JobLedger(std::uint64_t cap, std::size_t job_retries, bool dedupe)
    : cap_(cap), job_retries_(job_retries), dedupe_(dedupe) {}

JobLedger::Job& JobLedger::insert(std::uint64_t id, Donation spec,
                                  Job* parent, const SubtreeResult* done) {
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
  if (done != nullptr) {
    job->state = Job::kRunning;
    ++running_;
    complete(*job, SubtreeResult(*done));
  } else {
    ++pending_;
  }
  jobs_.push_back(std::move(job));
  return *jobs_.back();
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
  std::vector<MergeJob> order;
  order.reserve(jobs_.size());
  for (const auto& j : jobs_) {
    if (j->cancelled) {
      continue;
    }
    MergeJob m;
    m.key = &j->key;
    if (j->state == Job::kDone) {
      m.state = MergeJob::State::kDone;
      m.result = &j->result;
    } else if (j->state == Job::kFailed) {
      m.state = MergeJob::State::kFailed;
      m.error = &j->error;
    }
    order.push_back(m);
  }
  // A record fails only once its attempts exceed the retry budget, so every
  // failed record ran exactly job_retries + 1 attempts.
  ScheduleExploreResult res =
      merge_job_results(order, cap_, job_retries_ + 1, unfinished_error);
  res.jobs = jobs_.size();
  res.steals = steals_;
  if (!unfinished_error.empty() && !res.error && !res.timed_out) {
    // Every record resolved before the poison landed (e.g. an audit
    // collision raced the last result): the numbers merged, but no prune
    // in them is trustworthy.
    res.error = unfinished_error;
    res.exhausted = false;
  }
  return res;
}

}  // namespace revisim::check::detail
