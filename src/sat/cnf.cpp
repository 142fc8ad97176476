#include "sat/cnf.hpp"

#include <algorithm>

namespace janus::sat {

const std::string cnf::empty_name_{};

var cnf::new_var() { return num_vars_++; }

var cnf::new_var(std::string name) {
  const var v = new_var();
  if (!name.empty()) {
    if (names_.size() <= static_cast<std::size_t>(v)) {
      names_.resize(static_cast<std::size_t>(v) + 1);
    }
    names_[static_cast<std::size_t>(v)] = std::move(name);
  }
  return v;
}

var cnf::new_vars(int n) {
  JANUS_CHECK(n >= 0);
  const var first = num_vars_;
  num_vars_ += n;
  return first;
}

void cnf::add_clause(std::span<const lit> lits) {
  clause_starts_.push_back(static_cast<std::uint32_t>(literals_.size()));
  for (const lit l : lits) {
    JANUS_CHECK_MSG(!l.is_undef() && l.variable() < num_vars_,
                    "clause literal over unallocated variable");
    literals_.push_back(l);
  }
}

void cnf::add_clause(std::initializer_list<lit> lits) {
  add_clause(std::span<const lit>(lits.begin(), lits.size()));
}

void cnf::at_most_one_pairwise(std::span<const lit> lits) {
  for (std::size_t i = 0; i < lits.size(); ++i) {
    for (std::size_t j = i + 1; j < lits.size(); ++j) {
      add_binary(~lits[i], ~lits[j]);
    }
  }
}

void cnf::exactly_one(std::span<const lit> lits) {
  at_least_one(lits);
  at_most_one_pairwise(lits);
}

lit cnf::add_and(std::span<const lit> lits) {
  const lit t = lit::make(new_var());
  std::vector<lit> big;
  big.reserve(lits.size() + 1);
  big.push_back(t);
  for (const lit l : lits) {
    add_binary(~t, l);  // t -> l
    big.push_back(~l);
  }
  add_clause(big);  // (AND lits) -> t
  return t;
}

lit cnf::add_or(std::span<const lit> lits) {
  const lit t = lit::make(new_var());
  std::vector<lit> big;
  big.reserve(lits.size() + 1);
  big.push_back(~t);
  for (const lit l : lits) {
    add_binary(~l, t);  // l -> t
    big.push_back(l);
  }
  add_clause(big);  // t -> (OR lits)
  return t;
}

std::span<const lit> cnf::clause(std::size_t i) const {
  JANUS_CHECK(i < clause_starts_.size());
  const std::uint32_t begin = clause_starts_[i];
  const std::uint32_t end = (i + 1 < clause_starts_.size())
                                ? clause_starts_[i + 1]
                                : static_cast<std::uint32_t>(literals_.size());
  return {literals_.data() + begin, literals_.data() + end};
}

const std::string& cnf::var_name(var v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= names_.size()) {
    return empty_name_;
  }
  return names_[static_cast<std::size_t>(v)];
}

}  // namespace janus::sat
