#include "src/check/worlds.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/augmented/mutant_snapshot.h"
#include "src/check/watchdog.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"

namespace revisim::check {
namespace {

using Factory = std::function<std::unique_ptr<ExplorableWorld>()>;

// The parameter fields of one spec, with the spec kept for error messages.
struct Fields {
  std::string spec;
  std::vector<std::string_view> items;

  [[noreturn]] void refuse(const std::string& why) const {
    throw std::invalid_argument("world spec \"" + spec + "\": " + why);
  }

  void arity(std::size_t min, std::size_t max, const char* params) const {
    if (items.size() < min || items.size() > max) {
      refuse("takes " + std::string(params) + ", got " +
             std::to_string(items.size()) + " parameters");
    }
  }

  std::size_t number(std::size_t i, const char* name) const {
    const auto v = parse_decimal(items[i]);
    if (!v) {
      refuse(std::string(name) +
             " must be a decimal count (digits only, within std::size_t), "
             "got \"" +
             std::string(items[i]) + "\"");
    }
    return *v;
  }

  std::size_t positive(std::size_t i, const char* name) const {
    const std::size_t v = number(i, name);
    if (v == 0) {
      refuse(std::string(name) + " must be >= 1");
    }
    return v;
  }
};

// --- aug-bu / aug-mutant ----------------------------------------------------

runtime::Task<void> monitored_block_update(aug::IAugmentedSnapshot& obj,
                                           ProgressMonitor& monitor,
                                           runtime::ProcessId me,
                                           std::size_t comp, Val val) {
  const std::size_t token = monitor.begin(me, "Block-Update");
  aug::IAugmentedSnapshot::Comps comps{comp};
  aug::IAugmentedSnapshot::Vals vals{val};
  co_await obj.BlockUpdate(me, std::move(comps), std::move(vals));
  monitor.end(token);
}

class CrashWorld final : public ExplorableWorld {
 public:
  CrashWorld(bool mutant, std::size_t f, std::size_t m, std::size_t budget)
      : monitor_(sched_, budget) {
    if (mutant) {
      obj_ = std::make_unique<aug::MutantAugmentedSnapshot>(sched_, "M", m, f);
    } else {
      obj_ = std::make_unique<aug::AugmentedSnapshot>(sched_, "M", m, f);
    }
    for (runtime::ProcessId i = 0; i < f; ++i) {
      sched_.spawn(monitored_block_update(*obj_, monitor_, i, i % m,
                                          Val(10 * (i + 1))),
                   "q" + std::to_string(i + 1));
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    (void)complete;  // the budget binds on partial executions too
    if (auto v = monitor_.check()) {
      return v->message();
    }
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  ProgressMonitor monitor_;
  std::unique_ptr<aug::IAugmentedSnapshot> obj_;
};

Factory make_crash(const Fields& in, bool mutant) {
  in.arity(3, 3, "f,m,budget");
  const std::size_t f = in.positive(0, "f");
  const std::size_t m = in.positive(1, "m");
  const std::size_t budget = in.positive(2, "budget");
  return [=] { return std::make_unique<CrashWorld>(mutant, f, m, budget); };
}

// --- sim-racing -------------------------------------------------------------

struct SimParams {
  std::size_t f = 0;  // simulators
  std::size_t m = 0;
  sim::SimulationDriver::Options options;
};

// Simulator q_{i+1}'s input is 10*(i+1).  Built with the world, not with
// the factory, so that parsing a spec stays O(spec length).
std::vector<Val> sim_inputs(std::size_t f) {
  std::vector<Val> inputs(f);
  for (std::size_t i = 0; i < f; ++i) {
    inputs[i] = static_cast<Val>(10 * (i + 1));
  }
  return inputs;
}

class SimRacingWorld final : public ExplorableWorld {
 public:
  explicit SimRacingWorld(const SimParams& p)
      : protocol_(p.options.n, p.m),
        sim_(sched_, protocol_, sim_inputs(p.f), p.options) {}

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (!complete) {
      return "execution did not finish within the depth bound";
    }
    auto report = sim::validate_simulation(sim_);
    if (!report.ok()) {
      return report.violations.front();
    }
    const std::span<const Val> inputs = sim_.inputs();
    for (Val y : sim_.outputs()) {
      if (std::find(inputs.begin(), inputs.end(), y) == inputs.end()) {
        return "output " + std::to_string(y) + " is not an input";
      }
    }
    return std::nullopt;
  }

  // The covering simulators' local state (their block plans and simulated
  // processes) is a function of neither the step counts nor the shared
  // contents, and nothing folds it in: deduping on this world would prune
  // unsoundly.
  void fingerprint_extra(util::StateSink& sink) override {
    (void)sink;
    throw std::invalid_argument(
        "world sim-racing does not support dedupe: the simulators' local "
        "state is not fingerprinted");
  }

 private:
  runtime::Scheduler sched_;
  proto::RacingAgreement protocol_;
  sim::SimulationDriver sim_;
};

Factory make_sim_racing(const Fields& in) {
  in.arity(4, 5, "n,k,x,m[,atomic|registers]");
  SimParams p;
  const std::size_t n = in.positive(0, "n");
  const std::size_t k = in.number(1, "k");
  const std::size_t x = in.number(2, "x");
  p.m = in.positive(3, "m");
  // The largest input, 10*(k+1), must fit a Val.
  if (k >= static_cast<std::size_t>(std::numeric_limits<Val>::max() / 10)) {
    in.refuse("k is too large: the inputs 10*(i+1) must fit a Val");
  }
  const std::size_t f = k + 1;
  if (x > f) {
    in.refuse("x must be <= k+1 = " + std::to_string(f));
  }
  // n >= (f-x)*m + x, written so that the product cannot overflow.
  const std::size_t covering = f - x;
  if (n < x || (covering != 0 && p.m > (n - x) / covering)) {
    in.refuse("n = " + std::to_string(n) +
              " is below the partition minimum (k+1-x)*m + x");
  }
  p.f = f;
  p.options.n = n;
  p.options.d = x;
  if (in.items.size() == 5) {
    if (in.items[4] == "registers") {
      p.options.substrate = sim::SimulationDriver::Substrate::kRegisters;
    } else if (in.items[4] != "atomic") {
      in.refuse("substrate must be atomic or registers, got \"" +
                std::string(in.items[4]) + "\"");
    }
  }
  return [p] { return std::make_unique<SimRacingWorld>(p); };
}

// --- aug-script -------------------------------------------------------------

// One operation of an op word: the components a Block-Update writes, or
// none for a Scan.
using Op = std::vector<std::size_t>;
using OpWord = std::vector<Op>;
using Script = std::vector<OpWord>;  // one op word per process

runtime::Task<void> run_ops(aug::AugmentedSnapshot& obj, runtime::ProcessId me,
                            const OpWord& ops) {
  Val next = static_cast<Val>(10 * (me + 1));
  for (const Op& op : ops) {
    if (op.empty()) {
      co_await obj.Scan(me);
      continue;
    }
    aug::IAugmentedSnapshot::Vals vals(op.size());
    std::iota(vals.begin(), vals.end(), next);
    next += static_cast<Val>(op.size());
    co_await obj.BlockUpdate(me, op, std::move(vals));
  }
}

class AugScriptWorld final : public ExplorableWorld {
 public:
  AugScriptWorld(std::shared_ptr<const Script> script, std::size_t m)
      : script_(std::move(script)), m_(m), obj_(sched_, "M", m,
                                                script_->size()) {
    for (runtime::ProcessId p = 0; p < script_->size(); ++p) {
      sched_.spawn(run_ops(obj_, p, (*script_)[p]),
                   "q" + std::to_string(p + 1));
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    (void)complete;  // the linearizer accepts partial executions
    auto lin = aug::linearize(obj_.log(), m_);
    if (!lin.ok()) {
      return lin.violations.front();
    }
    return std::nullopt;
  }

 private:
  std::shared_ptr<const Script> script_;  // outlives the processes
  std::size_t m_;
  runtime::Scheduler sched_;
  aug::AugmentedSnapshot obj_;
};

Factory make_aug_script(const Fields& in) {
  in.arity(2, SIZE_MAX, "m,ops,ops,...");
  const std::size_t m = in.positive(0, "m");
  auto script = std::make_shared<Script>();
  for (std::size_t p = 1; p < in.items.size(); ++p) {
    const std::string_view word = in.items[p];
    const std::string field = "op word " + std::to_string(p) + " \"" +
                              std::string(word) + "\"";
    if (word.empty()) {
      in.refuse(field + " is empty");
    }
    OpWord ops;
    std::size_t written = 0;  // values written so far by this process
    const auto writes = [&](std::size_t count) {
      // Process p's values 10*(p+1)+i stay distinct from every other
      // process's only while i < 10.
      if (count >= 10 - written) {
        in.refuse(field + " writes more than 9 values");
      }
      written += count;
    };
    for (std::size_t i = 0; i < word.size();) {
      const char c = word[i++];
      if (c == 's') {
        ops.emplace_back();
      } else if (c == 'w') {
        writes(m);
        ops.emplace_back(m);
        std::iota(ops.back().begin(), ops.back().end(), std::size_t{0});
      } else if (c == 'u') {
        std::size_t end = i;
        while (end < word.size() && word[end] >= '0' && word[end] <= '9') {
          ++end;
        }
        const auto comp = parse_decimal(word.substr(i, end - i));
        if (!comp || *comp >= m) {
          in.refuse(field + ": u needs a component below m = " +
                    std::to_string(m));
        }
        writes(1);
        ops.push_back({*comp});
        i = end;
      } else {
        in.refuse(field + ": unknown op '" + std::string(1, c) +
                  "' (want u<c>, w or s)");
      }
    }
    script->push_back(std::move(ops));
  }
  std::shared_ptr<const Script> shared = std::move(script);
  return [shared, m] { return std::make_unique<AugScriptWorld>(shared, m); };
}

struct Entry {
  const char* name;
  Factory (*make)(const Fields&);
};

const Entry kWorlds[] = {
    {"aug-bu", [](const Fields& in) { return make_crash(in, false); }},
    {"aug-mutant", [](const Fields& in) { return make_crash(in, true); }},
    {"sim-racing", make_sim_racing},
    {"aug-script", make_aug_script},
};

}  // namespace

std::optional<std::size_t> parse_decimal(std::string_view text) {
  // from_chars into an unsigned type takes no sign, space or prefix.
  std::size_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end) {
    return std::nullopt;
  }
  return v;
}

std::function<std::unique_ptr<ExplorableWorld>()> make_world_factory(
    const std::string& spec) {
  Fields in;
  in.spec = spec;
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  std::string names;
  for (const Entry& e : kWorlds) {
    if (name == e.name) {
      for (std::size_t at = colon; at != std::string::npos;) {
        const std::size_t next = spec.find(',', at + 1);
        in.items.push_back(
            std::string_view(spec).substr(at + 1, next - at - 1));
        at = next;
      }
      return e.make(in);
    }
    names += (names.empty() ? "" : ", ") + std::string(e.name);
  }
  in.refuse("unknown world \"" + name + "\"; known worlds: " + names);
}

}  // namespace revisim::check
