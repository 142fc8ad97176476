// Tests for the inprocessing engine (sat/simplify.hpp).
//
// The engine rewrites the formula underneath the search — subsumption,
// strengthening, failed-literal probing, vivification — so the tests here
// are about *preservation*: with inprocessing on, the solver must report
// the same status as with it off (and as brute force), models must satisfy
// the ORIGINAL formula, and since no variable is ever removed, clauses and
// assumptions over any variable must stay legal and sound across solves,
// conflict cores included.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lm/encoding.hpp"
#include "lm/lattice_info.hpp"
#include "lm/target.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace janus::sat {
namespace {

bool brute_force_sat(const cnf& f, const std::vector<lit>& assumptions = {}) {
  const int n = f.num_vars();
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    bool all = true;
    for (const lit l : assumptions) {
      const bool value = ((m >> l.variable()) & 1) != 0;
      if (value == l.negated()) {
        all = false;
        break;
      }
    }
    for (std::size_t i = 0; i < f.num_clauses() && all; ++i) {
      bool clause_sat = false;
      for (const lit l : f.clause(i)) {
        const bool value = ((m >> l.variable()) & 1) != 0;
        if (value != l.negated()) {
          clause_sat = true;
          break;
        }
      }
      all = clause_sat;
    }
    if (all) {
      return true;
    }
  }
  return false;
}

bool model_satisfies(const solver& s, const cnf& f) {
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    bool clause_sat = false;
    for (const lit l : f.clause(i)) {
      if (s.model_value(l) == lbool::true_value) {
        clause_sat = true;
        break;
      }
    }
    if (!clause_sat) {
      return false;
    }
  }
  return true;
}

/// Appends `num_vars` fresh variables to `f` and random 1–3-literal clauses
/// over them.
void add_random_clauses(cnf& f, rng& r, int num_vars) {
  const var first = f.new_vars(num_vars);
  const int clauses =
      num_vars + static_cast<int>(
                     r.next_below(static_cast<std::uint64_t>(num_vars * 3)));
  for (int c = 0; c < clauses; ++c) {
    std::vector<lit> cl;
    const int len = 1 + static_cast<int>(r.next_below(3));
    for (int k = 0; k < len; ++k) {
      cl.push_back(lit::make(
          first + static_cast<var>(
                      r.next_below(static_cast<std::uint64_t>(num_vars))),
          r.next_bool()));
    }
    f.add_clause(cl);
  }
}

cnf random_cnf(rng& r, int num_vars) {
  cnf f;
  add_random_clauses(f, r, num_vars);
  return f;
}

/// A random literal over any variable of `f`.
lit random_lit(rng& r, const cnf& f) {
  return lit::make(static_cast<var>(r.next_below(
                       static_cast<std::uint64_t>(f.num_vars()))),
                   r.next_bool());
}

solver_options inprocessing_options() {
  solver_options o;
  o.inprocess = true;
  o.inprocess_interval = 50;  // force rounds even on small instances
  return o;
}

/// Pigeonhole principle: n+1 pigeons in n holes — UNSAT.
cnf pigeonhole(int holes) {
  cnf f;
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
        f.add_binary(
            ~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
            ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  return f;
}

/// Pigeonhole with every clause guarded by one activation variable g:
/// solve({g}) is hard UNSAT, solve({~g}) is trivially SAT. Returns g. With
/// `amo_guard` set, the at-most-one clauses take that guard instead, so
/// only solve({g, amo_guard}) is UNSAT.
var guarded_pigeonhole(cnf& f, int holes, var amo_guard = var_undef) {
  const var g = f.new_var();
  const lit guard = ~lit::make(g);
  const lit amo = amo_guard == var_undef ? guard : ~lit::make(amo_guard);
  const int pigeons = holes + 1;
  std::vector<std::vector<lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(lit::make(f.new_var()));
    }
    std::vector<lit> clause = in[static_cast<std::size_t>(p)];
    clause.insert(clause.begin(), guard);
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause(
            {amo,
             ~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
             ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]});
      }
    }
  }
  return g;
}

/// guarded_pigeonhole(6) whose at-most-one clauses take a second guard h, so
/// only solve({g, h}) is UNSAT, plus satisfiable side constraints
/// (x | helper), (~helper | y) through a helper that is never assumed.
struct guarded_instance {
  cnf f;
  var h = var_undef;
  var g = var_undef;
  var x = var_undef;
  var y = var_undef;
  var helper = var_undef;
};

guarded_instance guarded_pigeonhole_with_helper() {
  guarded_instance in;
  in.h = in.f.new_var();
  in.g = guarded_pigeonhole(in.f, 6, in.h);
  in.x = in.f.new_var();
  in.y = in.f.new_var();
  in.helper = in.f.new_var();
  in.f.add_binary(lit::make(in.x), lit::make(in.helper));
  in.f.add_binary(~lit::make(in.helper), lit::make(in.y));
  return in;
}

// ---------------------------------------------------------------------------
// Model preservation
// ---------------------------------------------------------------------------

TEST(Simplify, RandomCnfAgreesWithBruteForce) {
  rng r(4242);
  for (int iter = 0; iter < 400; ++iter) {
    const int nv = 4 + static_cast<int>(r.next_below(10));
    const cnf f = random_cnf(r, nv);
    solver s(inprocessing_options());
    s.add_cnf(f);
    const solve_result res = s.solve();
    const bool expected = brute_force_sat(f);
    ASSERT_EQ(res == solve_result::sat, expected) << "iter " << iter;
    if (res == solve_result::sat) {
      // The model must satisfy the ORIGINAL clauses, not just the
      // simplified ones.
      ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
    }
  }
}

TEST(Simplify, OnAndOffAgreeOnPlantedInstances) {
  rng r(77);
  std::uint64_t restarts = 0;
  for (int iter = 0; iter < 10; ++iter) {
    const int nv = 80 + static_cast<int>(r.next_below(120));
    const int nc = static_cast<int>(static_cast<double>(nv) * 4.0);
    std::vector<bool> hidden(static_cast<std::size_t>(nv));
    for (int v = 0; v < nv; ++v) {
      hidden[static_cast<std::size_t>(v)] = r.next_bool();
    }
    cnf f;
    f.new_vars(nv);
    for (int c = 0; c < nc; ++c) {
      std::vector<lit> cl;
      bool satisfied = false;
      while (!satisfied) {
        cl.clear();
        for (int k = 0; k < 3; ++k) {
          const auto v =
              static_cast<var>(r.next_below(static_cast<std::uint64_t>(nv)));
          const bool neg = r.next_bool();
          cl.push_back(lit::make(v, neg));
          satisfied |= hidden[static_cast<std::size_t>(v)] != neg;
        }
      }
      f.add_clause(cl);
    }
    solver_options o = inprocessing_options();
    o.reduce_base = 60;  // churn the learnt DB through vivification rounds
    solver s(o);
    s.add_cnf(f);
    ASSERT_EQ(s.solve(), solve_result::sat) << "iter " << iter;
    ASSERT_TRUE(model_satisfies(s, f)) << "iter " << iter;
    restarts += s.stats().restarts;
  }
  EXPECT_GT(restarts, 0u);  // the rounds ran across restart boundaries
}

TEST(Simplify, PigeonholeStaysUnsat) {
  solver s(inprocessing_options());
  s.add_cnf(pigeonhole(7));
  EXPECT_EQ(s.solve(), solve_result::unsat);
  EXPECT_FALSE(s.okay());  // empty-assumption unsat poisons the solver
}

TEST(Simplify, RealEncoderInstancesAgreeWithBaselineSolver) {
  lm::lattice_info_cache cache;
  const lm::lm_encode_options eo;
  for (const char* text : {"ab + c", "ab + b'c + ac'", "abc + a'b'"}) {
    const lm::target_spec t = lm::target_spec::parse(4, text);
    for (const lattice::dims d : {lattice::dims{2, 3}, lattice::dims{3, 3}}) {
      const lm::lm_encoder enc(t, cache.get(d), /*dual_side=*/false, eo);

      solver baseline;
      baseline.add_cnf(enc.formula());
      const solve_result expected = baseline.solve();

      solver s(inprocessing_options());
      s.add_cnf(enc.formula());
      const solve_result got = s.solve();
      ASSERT_EQ(got, expected) << text << " on " << d.str();
      if (got == solve_result::sat) {
        ASSERT_TRUE(model_satisfies(s, enc.formula()))
            << text << " on " << d.str();
        const auto mapping = enc.decode(s);
        EXPECT_TRUE(mapping.realizes(t.function()))
            << "decode failed for " << text
            << " on " << d.str();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental use: assumptions and clauses added between solves
// ---------------------------------------------------------------------------

TEST(Simplify, AssumptionUnsatKeepsSolverUsable) {
  cnf f;
  const var g = guarded_pigeonhole(f, 5);
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  const lit assume = lit::make(g);

  ASSERT_EQ(s.solve({{assume}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());  // assumption-relative unsat must not poison
  // The conflict core speaks the caller's language: negations of the
  // assumptions that were actually used.
  ASSERT_FALSE(s.conflict_core().empty());
  for (const lit l : s.conflict_core()) {
    EXPECT_EQ(l, ~assume);
  }

  ASSERT_EQ(s.solve({{~assume}}), solve_result::sat);
  EXPECT_TRUE(model_satisfies(s, f));
}

solver_options reference_options() {
  solver_options o;
  o.inprocess = false;
  return o;
}

std::uint64_t rewrites(const solver_stats& st) {
  return st.vivified + st.subsumed + st.strengthened;
}

TEST(Simplify, ClausesAddedBetweenSolvesStaySound) {
  rng r(909);
  std::uint64_t rewritten = 0;
  for (int iter = 0; iter < 60; ++iter) {
    // The pigeonhole refutation under `hard` runs past the preprocessing
    // delay into the inprocessing rounds; the random clauses keep every
    // iteration different.
    guarded_instance in = guarded_pigeonhole_with_helper();
    add_random_clauses(in.f, r, 5 + static_cast<int>(r.next_below(7)));
    const cnf& base = in.f;
    const std::vector<lit> hard = {lit::make(in.g), lit::make(in.h)};
    solver s(inprocessing_options());
    solver reference(reference_options());
    s.add_cnf(base);
    reference.add_cnf(base);
    ASSERT_EQ(s.solve(hard), reference.solve(hard))
        << "iter " << iter;
    const solve_result first = s.solve();
    ASSERT_EQ(first, reference.solve()) << "iter " << iter;
    rewritten += rewrites(s.stats());
    if (first != solve_result::sat) {
      continue;
    }
    // A clause over any three variables, added after the first solves.
    cnf extended = base;
    std::vector<lit> extra;
    for (int k = 0; k < 3; ++k) {
      extra.push_back(random_lit(r, base));
    }
    extended.add_clause(extra);
    const bool added = s.add_clause(extra);
    const bool expected = reference.add_clause(extra) &&
                          reference.solve() == solve_result::sat;
    if (!added) {
      ASSERT_FALSE(expected) << "iter " << iter;
      continue;
    }
    ASSERT_EQ(s.solve() == solve_result::sat, expected) << "iter " << iter;
    if (expected) {
      ASSERT_TRUE(model_satisfies(s, extended)) << "iter " << iter;
    }
    ASSERT_EQ(s.solve(hard), reference.solve(hard))
        << "iter " << iter;
  }
  // The instances reached the inprocessing rounds.
  EXPECT_GT(rewritten, 0u);
}

TEST(Simplify, RandomAssumptionSequencesStaySound) {
  rng r(31337);
  std::uint64_t rewritten = 0;
  for (int iter = 0; iter < 120; ++iter) {
    guarded_instance in = guarded_pigeonhole_with_helper();
    add_random_clauses(in.f, r, 5 + static_cast<int>(r.next_below(8)));
    const cnf& f = in.f;
    const std::vector<lit> hard = {lit::make(in.g), lit::make(in.h)};
    solver s(inprocessing_options());
    solver reference(reference_options());
    s.add_cnf(f);
    reference.add_cnf(f);
    for (int round = 0; round < 6; ++round) {
      // Every other round also assumes the pigeonhole guards, so the
      // search runs long enough to reach the inprocessing rounds.
      std::vector<lit> assumptions =
          round % 2 == 0 ? hard : std::vector<lit>{};
      const int count = static_cast<int>(r.next_below(4));
      for (int k = 0; k < count; ++k) {
        assumptions.push_back(random_lit(r, f));
      }
      const solve_result res = s.solve(assumptions);
      const solve_result expected = reference.solve(assumptions);
      ASSERT_EQ(res, expected) << "iter " << iter << " round " << round;
      if (res == solve_result::sat) {
        ASSERT_TRUE(model_satisfies(s, f));
        for (const lit a : assumptions) {
          ASSERT_EQ(s.model_value(a), lbool::true_value);
        }
      } else {
        // Every core literal must be the negation of a given assumption.
        for (const lit l : s.conflict_core()) {
          bool matched = false;
          for (const lit a : assumptions) {
            matched |= l == ~a;
          }
          ASSERT_TRUE(matched) << "iter " << iter << " round " << round;
        }
        if (!s.okay()) {
          break;  // unconditionally unsat: nothing more to probe
        }
      }
    }
    rewritten += rewrites(s.stats());
  }
  // The instances reached the inprocessing rounds.
  EXPECT_GT(rewritten, 0u);
}

// ---------------------------------------------------------------------------
// Final-conflict cores
// ---------------------------------------------------------------------------

TEST(Simplify, ConflictCoreStaysWithinAssumptionsAfterInprocessing) {
  // Assumptions reach the search exactly as passed, and the final conflict
  // is reported without translation; it must still name only negated
  // caller assumptions once subsumption and vivification have rewritten the
  // formula underneath. The refutation needs both g and h, so the core is
  // traced back through the assumption levels rather than read off a level-0
  // unit.
  const auto [f, h, g, x, y, helper] = guarded_pigeonhole_with_helper();
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));

  const std::vector<std::vector<lit>> calls = {
      {lit::make(x), lit::make(g), ~lit::make(y), lit::make(h)},
      {lit::make(h), ~lit::make(y), lit::make(x), lit::make(g)},
      {lit::make(g), lit::make(h)},
  };
  for (const std::vector<lit>& assumptions : calls) {
    ASSERT_EQ(s.solve(assumptions), solve_result::unsat);
    EXPECT_TRUE(s.okay());
    const std::vector<lit>& core = s.conflict_core();
    // The formula is satisfiable without g or without h, so the core must
    // name both.
    EXPECT_NE(std::find(core.begin(), core.end(), ~lit::make(g)), core.end());
    EXPECT_NE(std::find(core.begin(), core.end(), ~lit::make(h)), core.end());
    for (const lit l : core) {
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), ~l),
                assumptions.end())
          << "core literal is not a negated assumption";
    }
  }
  EXPECT_GT(s.stats().vivified, 0u);

  ASSERT_EQ(s.solve({{~lit::make(g), lit::make(x)}}), solve_result::sat);
  EXPECT_TRUE(model_satisfies(s, f));
}

TEST(Simplify, ClausesOverAnyVariableStayLegalAfterPreprocessing) {
  // Once the first UNSAT answer has run the preprocessing pass and later
  // rounds, a clause over the never-assumed helper is still legal and
  // composes with everything learned.
  const auto [f, h, g, x, y, helper] = guarded_pigeonhole_with_helper();
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  ASSERT_EQ(s.solve({{lit::make(g), lit::make(h)}}), solve_result::unsat);
  // Vivification runs only in the rounds after the one-time preprocessing
  // pass, so a non-zero count shows the search got past the first round.
  ASSERT_GT(s.stats().vivified, 0u);

  const std::vector<lit> extra = {~lit::make(helper), ~lit::make(x)};
  cnf extended = f;
  extended.add_clause(extra);
  ASSERT_TRUE(s.add_clause(extra));

  // ~x forces the helper, which forces y.
  ASSERT_EQ(s.solve({{~lit::make(g), ~lit::make(x)}}), solve_result::sat);
  EXPECT_TRUE(model_satisfies(s, extended));
  EXPECT_EQ(s.model_value(lit::make(helper)), lbool::true_value);
  EXPECT_EQ(s.model_value(lit::make(y)), lbool::true_value);

  const std::vector<lit> refuted = {~lit::make(g), ~lit::make(x),
                                    ~lit::make(y)};
  ASSERT_EQ(s.solve(refuted), solve_result::unsat);
  EXPECT_TRUE(s.okay());
  for (const lit l : s.conflict_core()) {
    EXPECT_NE(std::find(refuted.begin(), refuted.end(), ~l), refuted.end())
        << "core literal is not a negated assumption";
  }
  // With x true the new clause forbids the helper.
  ASSERT_EQ(s.solve({{lit::make(x), lit::make(helper)}}), solve_result::unsat);
  ASSERT_EQ(s.solve({{lit::make(g), lit::make(h)}}), solve_result::unsat);
  ASSERT_EQ(s.solve({{~lit::make(g), lit::make(x)}}), solve_result::sat);
  EXPECT_TRUE(model_satisfies(s, extended));
}

// ---------------------------------------------------------------------------
// Counters and hygiene
// ---------------------------------------------------------------------------

TEST(Simplify, CountersAdvanceAndFlowThroughArithmetic) {
  solver s(inprocessing_options());
  s.add_cnf(pigeonhole(7));
  // Hand the engine some obviously redundant material.
  ASSERT_TRUE(s.add_clause({lit::make(0), lit::make(1), lit::make(2)}));
  ASSERT_TRUE(s.add_clause({lit::make(0), lit::make(1), lit::make(2),
                            lit::make(3)}));
  ASSERT_EQ(s.solve(), solve_result::unsat);
  const solver_stats st = s.stats();
  EXPECT_GT(st.subsumed + st.strengthened + st.vivified + st.probed_failed_lits,
            0u);

  solver_stats sum;
  sum += st;
  const solver_stats delta = sum - solver_stats{};
  EXPECT_EQ(delta.subsumed, st.subsumed);
  EXPECT_EQ(delta.strengthened, st.strengthened);
  EXPECT_EQ(delta.eliminated_vars, st.eliminated_vars);
  EXPECT_EQ(delta.vivified, st.vivified);
  EXPECT_EQ(delta.probed_failed_lits, st.probed_failed_lits);
  EXPECT_EQ(delta.substituted_vars, st.substituted_vars);
}

TEST(Simplify, DecayHeuristicsKeepsSolverSound) {
  cnf f;
  const var g = guarded_pigeonhole(f, 5);
  solver s(inprocessing_options());
  ASSERT_TRUE(s.add_cnf(f));
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  s.decay_heuristics();
  ASSERT_EQ(s.solve({{~lit::make(g)}}), solve_result::sat);
  s.decay_heuristics();
  ASSERT_EQ(s.solve({{lit::make(g)}}), solve_result::unsat);
  EXPECT_TRUE(s.okay());
}

}  // namespace
}  // namespace janus::sat
