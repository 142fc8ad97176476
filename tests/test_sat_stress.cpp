// Stress and regression tests for the SAT solver: clause-database churn,
// garbage collection, budget resumption and structured UNSAT families.
#include <gtest/gtest.h>

#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace janus::sat {
namespace {

/// XOR chain x0 ^ x1 ^ … ^ x_{n-1} = parity, as CNF over 3-var steps.
/// With both parities asserted it is UNSAT.
cnf xor_chain_contradiction(int n) {
  cnf f;
  f.new_vars(n);
  std::vector<var> acc;  // accumulator variables
  var prev = 0;
  for (int i = 1; i < n; ++i) {
    const var next = f.new_var();  // next = prev XOR x_i
    const lit p = lit::make(prev);
    const lit x = lit::make(i);
    const lit t = lit::make(next);
    f.add_ternary(~p, ~x, ~t);
    f.add_ternary(~p, x, t);
    f.add_ternary(p, ~x, t);
    f.add_ternary(p, x, ~t);
    prev = next;
  }
  // Force every input to a value with even parity, then assert odd parity.
  for (int i = 0; i < n; ++i) {
    f.add_unit(lit::make(i, true));
  }
  f.add_unit(lit::make(prev));
  return f;
}

TEST(SolverStress, XorChainContradictionsAreUnsat) {
  for (int n : {4, 16, 64}) {
    solver s;
    s.add_cnf(xor_chain_contradiction(n));
    EXPECT_EQ(s.solve(), solve_result::unsat) << n;
  }
}

TEST(SolverStress, ManySolveCallsWithGrowingFormula) {
  // Incremental usage: keep adding constraints and re-solving; exercises
  // top-level simplification and learnt-clause retention across calls.
  solver s;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    s.new_var();
  }
  rng r(7);
  int remaining_sat = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(lit::make(
          static_cast<var>(r.next_below(n)), r.next_bool()));
    }
    if (!s.add_clause(clause)) {
      break;
    }
    if (s.solve() == solve_result::sat) {
      ++remaining_sat;
    } else {
      break;
    }
  }
  EXPECT_GT(remaining_sat, 10);
}

TEST(SolverStress, GarbageCollectionSurvivesHeavyChurn) {
  // Aggressive reduction forces repeated arena compaction; the planted model
  // must still be found and every learnt clause must stay sound.
  rng r(11);
  const int nv = 250;
  std::vector<bool> hidden(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    hidden[static_cast<std::size_t>(v)] = r.next_bool();
  }
  cnf f;
  f.new_vars(nv);
  for (int c = 0; c < nv * 5; ++c) {
    std::vector<lit> cl;
    bool ok = false;
    while (!ok) {
      cl.clear();
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<var>(r.next_below(nv));
        const bool neg = r.next_bool();
        cl.push_back(lit::make(v, neg));
        ok |= hidden[static_cast<std::size_t>(v)] != neg;
      }
    }
    f.add_clause(cl);
  }
  solver_options o;
  o.reduce_base = 20;
  o.reduce_increment = 5;
  solver s(o);
  s.add_cnf(f);
  long bad = 0;
  s.on_learnt = [&](std::span<const lit> clause) {
    bool sat_by_hidden = false;
    for (const lit l : clause) {
      sat_by_hidden |= hidden[static_cast<std::size_t>(l.variable())] != l.negated();
    }
    bad += sat_by_hidden ? 0 : 1;
  };
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_EQ(bad, 0);
  EXPECT_GT(s.stats().removed_clauses, 0u);
  EXPECT_GT(s.stats().restarts, 0u);
}

TEST(SolverStress, BudgetedSolveCanResume) {
  // An exhausted conflict budget yields unknown; raising the budget and
  // re-solving the same solver must reach the real answer.
  cnf f;
  const int holes = 7;
  const int pigeons = holes + 1;
  std::vector<std::vector<lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(lit::make(f.new_var()));
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    f.add_clause(in[static_cast<std::size_t>(p)]);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_binary(~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                     ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  solver s;
  s.add_cnf(f);
  s.set_conflict_budget(5);
  ASSERT_EQ(s.solve(), solve_result::unknown);
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(SolverStress, AssumptionSweepOverPlantedInstance) {
  // For a satisfiable instance, assuming each hidden value must stay SAT;
  // assuming the complement of a forced variable must flip to UNSAT only
  // when it truly contradicts.
  rng r(13);
  const int nv = 40;
  cnf f;
  f.new_vars(nv);
  std::vector<bool> hidden(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) {
    hidden[static_cast<std::size_t>(v)] = r.next_bool();
  }
  for (int c = 0; c < nv * 4; ++c) {
    std::vector<lit> cl;
    bool ok = false;
    while (!ok) {
      cl.clear();
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<var>(r.next_below(nv));
        const bool neg = r.next_bool();
        cl.push_back(lit::make(v, neg));
        ok |= hidden[static_cast<std::size_t>(v)] != neg;
      }
    }
    f.add_clause(cl);
  }
  solver s;
  s.add_cnf(f);
  std::vector<lit> assume;
  for (int v = 0; v < nv; v += 5) {
    assume.push_back(lit::make(v, !hidden[static_cast<std::size_t>(v)]));
  }
  EXPECT_EQ(s.solve(assume), solve_result::sat);
  for (const lit a : assume) {
    EXPECT_EQ(s.model_value(a), lbool::true_value);
  }
}

}  // namespace
}  // namespace janus::sat
