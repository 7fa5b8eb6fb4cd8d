#include "src/tasks/colorless.h"

#include <sstream>
#include <stdexcept>

namespace revisim::tasks {
namespace {

std::string set_to_string(const ValueSet& s) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (Val v : s) {
    if (!first) {
      out << ',';
    }
    out << v;
    first = false;
  }
  out << '}';
  return out.str();
}

bool closed_under_subsets(const std::set<ValueSet>& family,
                          ValueSet* witness) {
  for (const ValueSet& s : family) {
    for (const ValueSet& sub : nonempty_subsets(s)) {
      if (!family.contains(sub)) {
        if (witness != nullptr) {
          *witness = sub;
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::set<ValueSet> nonempty_subsets(const ValueSet& s) {
  if (s.size() > 20) {
    throw std::invalid_argument("value set too large for subset enumeration");
  }
  std::vector<Val> vals(s.begin(), s.end());
  std::set<ValueSet> out;
  for (std::size_t mask = 1; mask < (std::size_t{1} << vals.size()); ++mask) {
    ValueSet sub;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (mask & (std::size_t{1} << i)) {
        sub.insert(vals[i]);
      }
    }
    out.insert(std::move(sub));
  }
  return out;
}

FiniteColorlessTask::FiniteColorlessTask(
    std::string name, std::set<ValueSet> inputs, std::set<ValueSet> outputs,
    std::map<ValueSet, std::set<ValueSet>> delta)
    : name_(std::move(name)),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      delta_(std::move(delta)) {}

std::string FiniteColorlessTask::check_closure() const {
  ValueSet witness;
  if (!closed_under_subsets(inputs_, &witness)) {
    return "I is not subset-closed: missing " + set_to_string(witness);
  }
  if (!closed_under_subsets(outputs_, &witness)) {
    return "O is not subset-closed: missing " + set_to_string(witness);
  }
  for (const ValueSet& in : inputs_) {
    auto it = delta_.find(in);
    if (it == delta_.end()) {
      return "Delta undefined on " + set_to_string(in);
    }
    if (!closed_under_subsets(it->second, &witness)) {
      return "Delta(" + set_to_string(in) + ") is not subset-closed: missing " +
             set_to_string(witness);
    }
    for (const ValueSet& out : it->second) {
      if (!outputs_.contains(out)) {
        return "Delta(" + set_to_string(in) + ") leaves O: " +
               set_to_string(out);
      }
    }
  }
  return {};
}

Verdict FiniteColorlessTask::validate(std::span<const Val> inputs,
                                      const std::vector<Val>& outputs) const {
  if (outputs.empty()) {
    return Verdict::good();  // the empty output set is always allowed
  }
  ValueSet in(inputs.begin(), inputs.end());
  ValueSet out(outputs.begin(), outputs.end());
  auto it = delta_.find(in);
  if (it == delta_.end()) {
    return Verdict::bad("input set " + set_to_string(in) + " not in I");
  }
  if (!it->second.contains(out)) {
    return Verdict::bad("output set " + set_to_string(out) +
                        " not in Delta(" + set_to_string(in) + ")");
  }
  return Verdict::good();
}

FiniteColorlessTask FiniteColorlessTask::kset(std::size_t k,
                                              const ValueSet& domain) {
  std::set<ValueSet> inputs = nonempty_subsets(domain);
  std::set<ValueSet> outputs;
  for (const ValueSet& s : inputs) {
    if (s.size() <= k) {
      outputs.insert(s);
    }
  }
  std::map<ValueSet, std::set<ValueSet>> delta;
  for (const ValueSet& in : inputs) {
    std::set<ValueSet> allowed;
    for (const ValueSet& sub : nonempty_subsets(in)) {
      if (sub.size() <= k) {
        allowed.insert(sub);
      }
    }
    delta.emplace(in, std::move(allowed));
  }
  return FiniteColorlessTask(
      (k == 1 ? std::string("consensus") : std::to_string(k) + "-set") +
          "/finite",
      std::move(inputs), std::move(outputs), std::move(delta));
}

}  // namespace revisim::tasks
