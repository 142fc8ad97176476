// Inprocessing engine for sat::solver.
//
// Two entry points, both invoked by solver::solve() at decision level 0:
//
//   * preprocess() — once per solver lifetime, at the first inprocessing
//     boundary: top-level cleanup and full backward subsumption with
//     self-subsuming resolution over the original clauses.
//
//   * inprocess() — at restart boundaries on a conflict-count schedule:
//     cleanup, backward subsumption seeded from the clauses added since the
//     last round, ticket-scheduled failed-literal probing on the binary
//     implication graph, and vivification of high-LBD learned clauses.
//
// Neither removes a variable: every rewrite is a subsumption, a
// strengthening or a new level-0 fact, each implied by the current formula,
// so later add_clause() calls and assumptions may mention any variable.
//
// A simplifier is a stack-constructed friend of the solver: persistent
// state (the subsumption queue, scheduling counters) lives on the solver,
// while this class only holds per-round scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/occurrence.hpp"
#include "sat/solver.hpp"

namespace janus::sat {

class simplifier {
 public:
  explicit simplifier(solver& s) : s_(s) {}

  simplifier(const simplifier&) = delete;
  simplifier& operator=(const simplifier&) = delete;

  /// One-time preprocessing pass (see file comment). May set okay() false
  /// when simplification refutes the formula.
  void preprocess();

  /// One restart-boundary inprocessing round (see file comment). May set
  /// okay() false.
  void inprocess();

 private:
  /// A clause under consideration this round, paired with its signature.
  struct item {
    solver::clause_ref cref;
    std::uint64_t sig;
  };

  // round plumbing
  [[nodiscard]] bool settle();
  void cleanup_list(std::vector<solver::clause_ref>& list);
  void clear_level0_reasons();
  void build_occurrence();
  void finish();

  // subsumption / self-subsuming resolution
  void push_work(std::uint32_t idx);
  void drain_subsumption();
  void backward_subsume(std::uint32_t idx);
  void strengthen_item(std::uint32_t idx, lit p);

  // probing and vivification
  void probe_failed_literals();
  void vivify_learnts();

  // stamping helpers (lit-code indexed)
  void next_stamp() { ++stamp_; }
  void stamp(lit l) { lit_stamp_[static_cast<std::size_t>(l.code())] = stamp_; }
  [[nodiscard]] bool stamped(lit l) const {
    return lit_stamp_[static_cast<std::size_t>(l.code())] == stamp_;
  }

  solver& s_;
  occurrence_index occ_;
  std::vector<item> items_;
  std::vector<std::uint32_t> work_;  // pending backward-subsumption items
  std::size_t work_head_ = 0;
  std::vector<std::uint8_t> in_work_;
  std::vector<std::uint64_t> lit_stamp_;
  std::uint64_t stamp_ = 0;
};

}  // namespace janus::sat
