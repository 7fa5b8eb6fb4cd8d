// Finite colorless tasks as explicit (I, O, Delta) triples (§2, "Tasks and
// Protocols").
//
// A colorless task over a finite value domain is a set I of input sets, a
// set O of output sets, and a map Delta from each input set to the output
// sets allowed for it - all three closed under non-empty subsets.  This is
// the paper's formal object; the validators in task_spec.h are its
// efficient instances.  The finite form exists to *check* that: closure can
// be verified mechanically, and the specialized validators are proven (on
// small domains, exhaustively) to agree with Delta-membership.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/tasks/task_spec.h"
#include "src/util/value.h"

namespace revisim::tasks {

using ValueSet = std::set<Val>;

class FiniteColorlessTask {
 public:
  FiniteColorlessTask(std::string name, std::set<ValueSet> inputs,
                      std::set<ValueSet> outputs,
                      std::map<ValueSet, std::set<ValueSet>> delta);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Verifies the §2 closure conditions: I, O and every Delta(I) are closed
  // under taking non-empty subsets, and Delta is defined on all of I.
  // Returns an explanation of the first failure, or empty when closed.
  [[nodiscard]] std::string check_closure() const;

  // Delta-membership for concrete executions: the set of outputs must be
  // allowed for the set of inputs (partial output sets are judged through
  // the subset closure).
  [[nodiscard]] Verdict validate(std::span<const Val> inputs,
                                 const std::vector<Val>& outputs) const;

  // The k-set agreement task over a finite domain, as an explicit triple.
  static FiniteColorlessTask kset(std::size_t k, const ValueSet& domain);

 private:
  std::string name_;
  std::set<ValueSet> inputs_;
  std::set<ValueSet> outputs_;
  std::map<ValueSet, std::set<ValueSet>> delta_;
};

// All non-empty subsets of `s` (for closure construction; |s| <= 20).
[[nodiscard]] std::set<ValueSet> nonempty_subsets(const ValueSet& s);

}  // namespace revisim::tasks
