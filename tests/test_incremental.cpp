// Tests for the incremental solve path: multi-solve() reuse in sat::solver
// (learned clauses surviving budget expiry and cancellation), lm_session /
// lm_session_pool probe parity with the scratch encoder, the UNSAT frontier's
// dominance pruning, and — the acceptance bar —
// bit-identical bounds and solution sizes between scratch and session mode
// at jobs=1 and jobs=8 across the Table II regression instances.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "exec/thread_pool.hpp"
#include "instances/table2.hpp"
#include "lm/lm_session.hpp"
#include "lm/lm_solver.hpp"
#include "sat/solver.hpp"
#include "synth/janus.hpp"

namespace janus {
namespace {

using lm::target_spec;

/// Pigeonhole principle over `holes` holes, with every clause guarded by a
/// fresh activation variable: (g -> clause) for all clauses. solve({g}) is
/// the hard UNSAT instance; solve({~g}) is trivially SAT. Returns g.
sat::var guarded_pigeonhole(sat::cnf& f, int holes) {
  const sat::var g = f.new_var();
  const sat::lit guard = ~sat::lit::make(g);
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(sat::lit::make(f.new_var()));
    }
    std::vector<sat::lit> clause = in[static_cast<std::size_t>(p)];
    clause.insert(clause.begin(), guard);
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_clause({guard,
                      ~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                      ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]});
      }
    }
  }
  return g;
}

TEST(SolverIncremental, LearnedClausesCarryAcrossSolveCalls) {
  sat::cnf f;
  const sat::var g = guarded_pigeonhole(f, 6);
  sat::solver s;
  ASSERT_TRUE(s.add_cnf(f));
  const sat::lit assume = sat::lit::make(g);

  ASSERT_EQ(s.solve({{assume}}), sat::solve_result::unsat);
  const sat::solver_stats first = s.stats();
  ASSERT_GT(first.conflicts, 0u);
  ASSERT_GT(first.learned_clauses, 0u);
  EXPECT_TRUE(s.okay());  // assumption-relative unsat must not poison

  // Deactivated, the formula is trivially satisfiable.
  ASSERT_EQ(s.solve({{~assume}}), sat::solve_result::sat);

  // Re-deciding the hard instance reuses the learned database: the second
  // refutation must be far cheaper than the first.
  ASSERT_EQ(s.solve({{assume}}), sat::solve_result::unsat);
  const sat::solver_stats resolve = s.stats() - first;
  EXPECT_LT(resolve.conflicts, first.conflicts / 2)
      << "re-solve conflicts " << resolve.conflicts << " vs first "
      << first.conflicts;
}

TEST(SolverIncremental, ReuseSurvivesInterveningCancelledSolve) {
  sat::cnf f;
  const sat::var g = guarded_pigeonhole(f, 6);
  const sat::lit assume = sat::lit::make(g);

  // Reference: the same instance solved from scratch in one shot.
  sat::solver fresh;
  ASSERT_TRUE(fresh.add_cnf(f));
  ASSERT_EQ(fresh.solve({{assume}}), sat::solve_result::unsat);
  const std::uint64_t scratch_conflicts = fresh.stats().conflicts;
  ASSERT_GT(scratch_conflicts, 100u);

  // Incremental: pay part of the work, get cancelled, then finish.
  sat::solver s;
  ASSERT_TRUE(s.add_cnf(f));
  s.set_conflict_budget(static_cast<std::int64_t>(scratch_conflicts / 2));
  ASSERT_EQ(s.solve({{assume}}), sat::solve_result::unknown);
  const sat::solver_stats paid = s.stats();
  EXPECT_GT(paid.learned_clauses, 0u);

  std::atomic<bool> stop{true};
  s.set_stop_flag(&stop);
  EXPECT_EQ(s.solve({{assume}}), sat::solve_result::unknown);
  s.set_stop_flag(nullptr);
  // The aborted call must not have thrown away the learned clauses (modulo
  // the usual LBD-based reduction, which never empties the database).
  EXPECT_GE(s.stats().learned_clauses, paid.learned_clauses);

  // Finishing resumes from the paid-for knowledge: the remaining conflicts
  // are fewer than a full scratch refutation.
  s.set_conflict_budget(-1);
  ASSERT_EQ(s.solve({{assume}}), sat::solve_result::unsat);
  const std::uint64_t resume_conflicts = s.stats().conflicts - paid.conflicts;
  EXPECT_LT(resume_conflicts, scratch_conflicts);
}

TEST(SessionPool, FrontierDominance) {
  const target_spec t = target_spec::parse(3, "ab + b'c");
  lm::lm_session_pool pool(t, {});
  EXPECT_FALSE(pool.known_unrealizable({1, 1}));
  pool.note_unrealizable({2, 3});
  EXPECT_TRUE(pool.known_unrealizable({2, 3}));
  EXPECT_TRUE(pool.known_unrealizable({1, 3}));
  EXPECT_TRUE(pool.known_unrealizable({2, 2}));
  EXPECT_FALSE(pool.known_unrealizable({3, 2}));
  EXPECT_FALSE(pool.known_unrealizable({2, 4}));
  EXPECT_FALSE(pool.known_unrealizable({3, 3}));
  // A dominating entry subsumes; a dominated insert is a no-op.
  pool.note_unrealizable({3, 3});
  pool.note_unrealizable({1, 1});
  EXPECT_TRUE(pool.known_unrealizable({3, 2}));
  EXPECT_TRUE(pool.known_unrealizable({2, 3}));
  EXPECT_FALSE(pool.known_unrealizable({4, 3}));
}

TEST(SessionParity, LadderMatchesScratchProbeForProbe) {
  lm::lattice_info_cache cache;
  const struct {
    const char* text;
    int vars;
  } functions[] = {
      {"ab + b'c", 3},
      {"ab + cd + ce", 5},
      {"abc + a'b'c'", 3},
  };
  const lattice::dims ladder[] = {{2, 2}, {1, 4}, {2, 3}, {3, 2},
                                  {3, 3}, {2, 2}, {4, 2}};
  for (const auto& fn : functions) {
    const target_spec t = target_spec::parse(fn.vars, fn.text);
    lm::lm_session_pool pool(t, {});
    lm::lm_options session_options;
    session_options.sessions = &pool;
    lm::lm_options scratch_options;
    for (const lattice::dims& d : ladder) {
      const lm::lm_result scratch = lm::solve_lm(t, cache.get(d), scratch_options);
      const lm::lm_result session = lm::solve_lm(t, cache.get(d), session_options);
      EXPECT_EQ(scratch.status, session.status)
          << fn.text << " on " << d.str();
      if (session.status == lm::lm_status::realizable) {
        ASSERT_TRUE(session.mapping.has_value());
        EXPECT_TRUE(session.mapping->realizes(t.function()))
            << fn.text << " on " << d.str();
        EXPECT_EQ(session.mapping->grid(), d);
      }
    }
    EXPECT_GT(pool.sessions_created(), 0u) << fn.text;
  }
}

TEST(SessionParity, ReusedDimsGroupAddsNoClauses) {
  lm::lattice_info_cache cache;
  const target_spec t = target_spec::parse(3, "ab + b'c");
  lm::lm_session session(t, /*dual_side=*/false, {});
  const auto first = session.probe(cache.get({2, 2}), deadline::never(),
                                   60.0, -1, exec::cancel_token{});
  EXPECT_FALSE(first.reused_group);
  EXPECT_GT(first.encoding.num_clauses, 0u);
  const auto again = session.probe(cache.get({2, 2}), deadline::never(),
                                   60.0, -1, exec::cancel_token{});
  EXPECT_TRUE(again.reused_group);
  EXPECT_EQ(again.encoding.num_clauses, 0u);
  EXPECT_EQ(first.verdict, again.verdict);
  EXPECT_EQ(session.num_groups(), 1u);
}

TEST(SessionParity, RuleFreeUnsatMarksGenuineUnrealizability) {
  // abc needs a path of length 3; every 2x2 path has length 2, so the probe
  // is UNSAT in the exact encoding — no heuristic rule needed. The session
  // must see a rule-free core and the pool must learn the frontier entry.
  lm::lattice_info_cache cache;
  const target_spec t = target_spec::parse(3, "abc");
  lm::lm_session session(t, /*dual_side=*/false, {});
  const auto pr = session.probe(cache.get({2, 2}), deadline::never(), 60.0,
                                -1, exec::cancel_token{});
  ASSERT_EQ(pr.verdict, sat::solve_result::unsat);
  EXPECT_TRUE(pr.rule_free_unsat);
}

TEST(SessionCancellation, CancelledProbeKeepsSessionUsable) {
  lm::lattice_info_cache cache;
  const target_spec t = target_spec::parse(3, "ab + b'c");
  lm::lm_session session(t, /*dual_side=*/false, {});

  exec::cancel_source source;
  source.request_cancel();
  const auto cancelled = session.probe(cache.get({3, 3}), deadline::never(),
                                       60.0, -1, source.token());
  EXPECT_EQ(cancelled.verdict, sat::solve_result::unknown);

  // The session survives: the same dims group resolves on the next probe,
  // and a different dims still works too.
  const auto retried = session.probe(cache.get({3, 3}), deadline::never(),
                                     60.0, -1, exec::cancel_token{});
  EXPECT_EQ(retried.verdict, sat::solve_result::sat);
  EXPECT_TRUE(retried.reused_group);
  const auto other = session.probe(cache.get({2, 2}), deadline::never(),
                                   60.0, -1, exec::cancel_token{});
  EXPECT_EQ(other.verdict, sat::solve_result::sat);
}

/// `pool` null = jobs=1; the tests hand in a pool of 8 for jobs=8.
synth::janus_options determinism_options(bool incremental,
                                         exec::thread_pool* pool) {
  synth::janus_options o;
  o.time_limit_s = 120.0;
  o.lm.sat_time_limit_s = 30.0;
  o.incremental = incremental;
  o.pool = pool;
  return o;
}

/// The acceptance bar: scratch and session mode produce bit-identical
/// bounds and solution sizes, sequentially and under the full parallel
/// fan-out, on Table II instances small enough that no budget expires.
TEST(SessionDeterminism, ScratchAndSessionAgreeAtJobs1AndJobs8) {
  exec::thread_pool pool(8);
  for (const char* name : {"b12_03", "c17_01", "dc1_00", "dc1_02", "dc1_03"}) {
    const target_spec t = instances::make_table2_instance(name);

    synth::janus_synthesizer scratch_engine(determinism_options(false, nullptr));
    const synth::janus_result scratch = scratch_engine.run(t);
    ASSERT_TRUE(scratch.solution.has_value()) << name;

    for (const int jobs : {1, 8}) {
      synth::janus_synthesizer engine(
          determinism_options(true, jobs == 1 ? nullptr : &pool));
      const synth::janus_result session = engine.run(t);
      ASSERT_TRUE(session.solution.has_value()) << name << " jobs=" << jobs;
      EXPECT_EQ(session.solution_size(), scratch.solution_size())
          << name << " jobs=" << jobs;
      EXPECT_EQ(session.lower_bound, scratch.lower_bound)
          << name << " jobs=" << jobs;
      EXPECT_EQ(session.old_upper_bound, scratch.old_upper_bound)
          << name << " jobs=" << jobs;
      EXPECT_EQ(session.new_upper_bound, scratch.new_upper_bound)
          << name << " jobs=" << jobs;
      EXPECT_FALSE(session.hit_time_limit) << name << " jobs=" << jobs;
      EXPECT_TRUE(session.solution->realizes(t.function()))
          << name << " jobs=" << jobs;
    }

    // And jobs=8 scratch agrees too (no frontier, pure fan-out).
    synth::janus_synthesizer par_scratch(determinism_options(false, &pool));
    const synth::janus_result ps = par_scratch.run(t);
    EXPECT_EQ(ps.solution_size(), scratch.solution_size()) << name;
    EXPECT_EQ(ps.lower_bound, scratch.lower_bound) << name;
    EXPECT_EQ(ps.new_upper_bound, scratch.new_upper_bound) << name;
  }
}

/// Inprocessing rewrites the formula underneath the session solvers; the
/// incremental contract requires that this never shows up in the results.
/// Compare across the configuration diagonal: scratch with inprocessing OFF
/// (the most conservative reference) against sessions with inprocessing ON,
/// at jobs=1 and jobs=8.
TEST(SessionDeterminism, InprocessingKeepsSizesBitIdentical) {
  exec::thread_pool pool(8);
  for (const char* name : {"b12_03", "dc1_00", "dc1_03"}) {
    const target_spec t = instances::make_table2_instance(name);

    synth::janus_options off = determinism_options(false, nullptr);
    off.lm.solver.inprocess = false;
    synth::janus_synthesizer baseline_engine(off);
    const synth::janus_result baseline = baseline_engine.run(t);
    ASSERT_TRUE(baseline.solution.has_value()) << name;

    for (const int jobs : {1, 8}) {
      synth::janus_options on =
          determinism_options(true, jobs == 1 ? nullptr : &pool);
      on.lm.solver.inprocess = true;
      synth::janus_synthesizer engine(on);
      const synth::janus_result session = engine.run(t);
      ASSERT_TRUE(session.solution.has_value()) << name << " jobs=" << jobs;
      EXPECT_EQ(session.solution_size(), baseline.solution_size())
          << name << " jobs=" << jobs;
      EXPECT_EQ(session.lower_bound, baseline.lower_bound)
          << name << " jobs=" << jobs;
      EXPECT_EQ(session.new_upper_bound, baseline.new_upper_bound)
          << name << " jobs=" << jobs;
      EXPECT_TRUE(session.solution->realizes(t.function()))
          << name << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace janus
