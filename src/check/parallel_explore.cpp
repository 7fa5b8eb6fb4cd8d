#include "src/check/parallel_explore.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/explore_core.h"
#include "src/check/job_ledger.h"
#include "src/check/state_table.h"

namespace revisim::check {
namespace {

using Clock = std::chrono::steady_clock;
using Job = detail::JobLedger::Job;

// The worker pool around the ledger, guarded by `mu` unless noted.
struct Pool {
  Pool(std::uint64_t cap, std::size_t job_retries, bool dedupe)
      : ledger(cap, job_retries, dedupe) {}

  std::mutex mu;
  std::condition_variable cv;
  detail::JobLedger ledger;
  std::size_t hungry = 0;  // workers blocked waiting for a job
  bool stop = false;       // deadline fired; claim nothing further
  // Lock-free mirror of `hungry` polled by donors once per node expansion.
  std::atomic<int> hungry_hint{0};
};

void run_one_worker(Pool& pool, std::size_t worker_id,
                    const std::function<std::unique_ptr<ExplorableWorld>()>&
                        factory,
                    const detail::SubtreeOptions& base, StateTable* table,
                    const std::optional<Clock::time_point>& deadline) {
  auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };

  std::unique_lock<std::mutex> lk(pool.mu);
  for (;;) {
    Job* job = nullptr;
    std::uint64_t budget = 0;
    while (!pool.stop) {
      if (past_deadline()) {
        pool.stop = true;
        break;
      }
      job = pool.ledger.claim(worker_id, budget);
      if (job != nullptr ||
          (pool.ledger.pending() == 0 && pool.ledger.running() == 0)) {
        break;
      }
      ++pool.hungry;
      pool.hungry_hint.fetch_add(1, std::memory_order_relaxed);
      if (deadline) {
        if (pool.cv.wait_until(lk, *deadline) == std::cv_status::timeout) {
          pool.stop = true;
        }
      } else {
        pool.cv.wait(lk);
      }
      --pool.hungry;
      pool.hungry_hint.fetch_sub(1, std::memory_order_relaxed);
    }
    if (job == nullptr) {
      pool.cv.notify_all();  // cascade termination to the other waiters
      return;
    }

    detail::SubtreeOptions sub = base;
    sub.max_executions = static_cast<std::size_t>(budget);
    sub.dedupe_states = base.dedupe_states && !job->no_dedupe;
    sub.table = sub.dedupe_states ? table : nullptr;
    sub.live_executions = &job->live;
    detail::JobContext ctx;
    if (!job->spec.choices.empty()) {
      ctx.root_choices = &job->spec.choices;
    }
    ctx.split.want = [&pool] {
      return pool.hungry_hint.load(std::memory_order_relaxed) > 0;
    };
    ctx.split.take = [&pool, job, worker_id](detail::Donation& d) {
      std::lock_guard<std::mutex> g(pool.mu);
      if (pool.stop || pool.hungry <= pool.ledger.pending() ||
          pool.ledger.donate(*job, std::move(d), worker_id) == nullptr) {
        return false;  // nobody starving, or job cancelled: donor keeps it
      }
      pool.cv.notify_one();
      return true;
    };
    // The deadline is read after every execution, the ledger only every
    // kProbeInterval-th (job_ledger.h): the walk stays off the pool mutex.
    std::uint64_t probes = 0;
    auto abort = [&pool, job, &past_deadline, &probes] {
      if (past_deadline()) {
        return true;
      }
      if (probes++ % detail::kProbeInterval != 0) {
        return false;
      }
      std::lock_guard<std::mutex> g(pool.mu);
      return pool.ledger.unreadable(*job);
    };

    lk.unlock();
    std::optional<std::string> failure;
    detail::SubtreeResult jr;
    try {
      jr = detail::explore_job(factory, job->spec.prefix, sub, abort, &ctx);
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown exception";
    }
    lk.lock();
    if (failure) {
      pool.ledger.requeue_or_fail(*job, *failure);
    } else {
      pool.ledger.complete(*job, std::move(jr));
    }
    pool.cv.notify_all();  // wake waiters: new bound, requeue, or the end
  }
}

}  // namespace

ScheduleExploreResult parallel_explore_schedules(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ParallelExploreOptions& options) {
  validate(options.base);
  const std::uint64_t cap =
      std::max<std::uint64_t>(options.base.max_executions, 1);
  const std::optional<Clock::time_point> deadline =
      options.time_limit.count() > 0
          ? std::optional<Clock::time_point>(Clock::now() + options.time_limit)
          : std::nullopt;

  // Workers beyond the core count cannot run subtrees faster, they only
  // interleave them - the measured failure mode of the pre-rework
  // frontier-split explorer.  Tests opt out to force steals anywhere.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = options.threads != 0 ? options.threads : cores;
  const std::size_t workers =
      options.oversubscribe ? threads : std::min(threads, cores);
  const detail::SubtreeOptions base = detail::subtree_options(options.base);

  // Serial probe (see ParallelExploreOptions::serial_probe_executions):
  // spawning and synchronizing a pool costs far more than a small tree
  // costs to walk outright, so give the serial engine a bounded head start
  // and keep its result whenever it is conclusive on its own - tree
  // exhausted, violation found (serial DFS order makes it the lex-smallest,
  // so the pool could not report a different one), or the probe already ran
  // to the caller's cap.  An inconclusive probe is discarded whole: the
  // pool recounts from scratch, so the cap accounting never double-counts.
  // A one-worker pool spawns nothing, so it has nothing to save.
  if (workers > 1 && options.serial_probe_executions > 0) {
    const std::uint64_t probe_cap =
        std::min<std::uint64_t>(cap, options.serial_probe_executions);
    auto past_deadline = [&] { return deadline && Clock::now() >= *deadline; };
    detail::SubtreeOptions sub = base;
    sub.max_executions = static_cast<std::size_t>(probe_cap);
    detail::AbortProbe abort;
    if (deadline) {
      abort = past_deadline;
    }
    try {
      auto sr = detail::explore_job(factory, {}, sub, abort);
      if (sr.fully_explored || sr.violation.has_value() || probe_cap >= cap) {
        const bool truncated = !sr.fully_explored;
        ScheduleExploreResult res = detail::whole_tree_result(std::move(sr));
        if (truncated && past_deadline()) {
          res.timed_out = true;
        }
        return res;
      }
    } catch (...) {
      // A deterministic throw will resurface in a worker, where the ledger's
      // retry and graceful degradation own it; a transient one is simply
      // absorbed here.
    }
  }

  // One transposition table shared by every worker (lock-free CAS inserts;
  // a mutex only in audit mode).
  std::unique_ptr<StateTable> table;
  if (options.base.dedupe_states) {
    table = std::make_unique<StateTable>(
        StateTable::Options{.audit = options.base.dedupe_audit});
  }

  Pool pool(cap, options.job_retries, options.base.dedupe_states);
  pool.ledger.insert(0, {}, nullptr);  // the seed: the whole tree, empty key

  auto worker_fn = [&](std::size_t id) {
    run_one_worker(pool, id, factory, base, table.get(), deadline);
  };
  if (workers == 1) {
    // One worker on the calling thread: nobody is ever hungry, so no
    // donations, no steals, one job - the serial walk plus the ledger's
    // retry and wall-clock envelopes.
    worker_fn(0);
  } else {
    std::vector<std::thread> spawned;
    spawned.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      spawned.emplace_back(worker_fn, t);
    }
    for (auto& t : spawned) {
      t.join();
    }
  }

  // Deterministic merge (job_ledger.h): steal timing and worker
  // interleaving influenced only results the merge never reads (with
  // dedupe off; with it on, the shared table makes counts
  // interleaving-dependent - see the header).  Table statistics are global
  // and attach to every return path.
  ScheduleExploreResult res = pool.ledger.merge({});
  if (table) {
    res.states_seen = table->states();
    res.subtrees_pruned = table->hits();
    res.table_saturated = table->saturated();
  }
  return res;
}

}  // namespace revisim::check
