// Tests for the LM pipeline: structural check, the paper's path encoding, the
// reachability encoding, dual-problem equivalence, the designed
// approximation behavior of the degree rules, and the soundness of the
// reflection symmetry breaking.
#include <gtest/gtest.h>

#include <utility>

#include "lm/lm_solver.hpp"
#include "lm/reach_encoding.hpp"
#include "lm/structural.hpp"

namespace janus::lm {
namespace {

using lattice::dims;

lm_options complete_options() {
  lm_options o;
  o.encode.use_degree_rules = false;
  o.encode.tl_isop_literals_only = false;
  return o;
}

TEST(TargetSpec, StatisticsOfTheFig1Function) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'", "fig1");
  EXPECT_EQ(t.num_vars(), 4);
  EXPECT_EQ(t.num_products(), 2u);
  EXPECT_EQ(t.degree(), 4);
  EXPECT_EQ(t.dual_sop().to_truth_table(), t.function().dual());
  EXPECT_FALSE(t.is_constant());
  const target_spec d = t.dual_spec();
  EXPECT_EQ(d.function(), t.dual_function());
  EXPECT_EQ(d.dual_function(), t.function());
}

TEST(TargetSpec, ConstantsAreFlagged) {
  EXPECT_TRUE(target_spec::from_function(bf::truth_table(3)).is_constant());
  EXPECT_TRUE(
      target_spec::from_function(bf::truth_table::ones(3)).is_constant());
}

TEST(Structural, LengthDomination) {
  // Paths of lengths 4,3,3 dominate products of lengths 3,3 but not 4,4.
  const std::vector<int> lattice_desc = {4, 3, 3};
  EXPECT_TRUE(lengths_dominate(lattice_desc, bf::cover::parse(4, "abc + bcd")));
  EXPECT_FALSE(
      lengths_dominate(lattice_desc, bf::cover::parse(4, "abcd + a'b'c'd'")));
  EXPECT_FALSE(lengths_dominate(
      lattice_desc, bf::cover::parse(4, "ab + cd + a'b' + c'd'")));  // count
}

TEST(Structural, PaperRejectionExamples) {
  // Section III-A: f = abcd + (conjugate) cannot fit 8×1 (too few products)
  // nor 2×4 (products too short).
  const target_spec t = target_spec::parse(4, "abcd + a'b'c'd'");
  lattice_info_cache cache;
  EXPECT_FALSE(structural_check(t, cache.get({8, 1})));
  EXPECT_FALSE(structural_check(t, cache.get({2, 4})));
  EXPECT_TRUE(structural_check(t, cache.get({4, 2})));
}

TEST(LmSolver, Fig1RealizationsAndRejections) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'", "fig1");
  lattice_info_cache cache;
  lm_options opt;
  // Realizable on 3×3 (the paper's Fig. 1c) and on the minimal 4×2 (Fig. 1d).
  EXPECT_EQ(solve_lm(t, cache.get({3, 3}), opt).status, lm_status::realizable);
  const lm_result min = solve_lm(t, cache.get({4, 2}), opt);
  ASSERT_EQ(min.status, lm_status::realizable);
  ASSERT_TRUE(min.mapping.has_value());
  EXPECT_TRUE(min.mapping->realizes(t.function()));
  // Unrealizable on every size-<8 lattice and on 2×4.
  for (const dims d : {dims{2, 4}, dims{3, 2}, dims{2, 3}, dims{7, 1}, dims{1, 7}}) {
    EXPECT_EQ(solve_lm(t, cache.get(d), opt).status, lm_status::unrealizable)
        << d.str();
  }
}

TEST(LmSolver, SolutionsAreOracleVerified) {
  const target_spec t = target_spec::parse(3, "ab + c");
  lattice_info_cache cache;
  lm_options opt;
  const lm_result r = solve_lm(t, cache.get({2, 2}), opt);
  ASSERT_EQ(r.status, lm_status::realizable);
  EXPECT_TRUE(r.mapping->realizes(t.function()));
}

TEST(LmSolver, EncodingStatisticsAreReported) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  const lm_result r = solve_lm(t, cache.get({3, 3}), complete_options());
  EXPECT_GT(r.encoding.num_vars, 0u);
  EXPECT_GT(r.encoding.num_clauses, 0u);
  EXPECT_GE(r.solve_seconds, 0.0);
}

TEST(LmSolver, TimeBudgetYieldsUnknown) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache cache;
  lm_options opt;
  opt.conflict_budget = 0;
  const lm_result r = solve_lm(t, cache.get({3, 3}), opt);
  EXPECT_EQ(r.status, lm_status::unknown);
}

TEST(LmSolver, OversizedLatticeIsSkipped) {
  const target_spec t = target_spec::parse(4, "abcd + a'b'cd'");
  lattice_info_cache tiny_cache(/*max_paths=*/4);
  lm_options opt;
  const lm_result r = solve_lm(t, tiny_cache.get({4, 4}), opt);
  EXPECT_EQ(r.status, lm_status::skipped);
}

/// Exhaustive 3-variable sweep: the paper's path encoding (complete settings)
/// and the independent reachability encoding must agree on every function and
/// lattice, and every SAT answer must verify.
class EncodingAgreement : public ::testing::TestWithParam<int> {};

TEST_P(EncodingAgreement, PathAndReachabilityAgree) {
  const int block = GetParam();
  const lm_options opt = complete_options();
  lattice_info_cache cache;
  for (int bits = block * 64 + 1; bits < (block + 1) * 64 && bits < 255;
       ++bits) {
    bf::truth_table f(3);
    for (int m = 0; m < 8; ++m) {
      f.set(static_cast<std::uint64_t>(m), ((bits >> m) & 1) != 0);
    }
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const target_spec t = target_spec::from_function(f);
    for (const dims d : {dims{2, 2}, dims{3, 2}, dims{2, 3}, dims{3, 3}}) {
      const lm_result a = solve_lm(t, cache.get(d), opt);
      const lm_result b = solve_lm_reachability(t, d, opt);
      ASSERT_EQ(a.status, b.status)
          << "f=" << f.to_binary_string() << " on " << d.str();
      if (a.status == lm_status::realizable) {
        EXPECT_TRUE(a.mapping->realizes(f));
        EXPECT_TRUE(b.mapping->realizes(f));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, EncodingAgreement, ::testing::Range(0, 4));

/// The dual problem (f^D via 8-connected paths) must be equisatisfiable with
/// the primal, and its decoded mapping (constants flipped) must realize f.
TEST(LmSolver, DualProblemEquivalence) {
  lattice_info_cache cache;
  lm_options primal_only = complete_options();
  primal_only.allow_dual_problem = false;
  for (const char* text :
       {"ab + c", "abc + a'b'", "ab + b'c + ac'", "abcd + a'b'cd'",
        "ab' + cd'"}) {
    const target_spec t = target_spec::parse(4, text);
    for (const dims d : {dims{2, 3}, dims{3, 3}, dims{3, 4}}) {
      const lm_result primal = solve_lm(t, cache.get(d), primal_only);
      // Force the dual problem by posing the dual target on the transposed
      // semantics: build the encoder for the dual side directly.
      const lattice_info& info = cache.get(d);
      lm_encode_options eo = primal_only.encode;
      const lm_encoder dual_encoder(t, info, /*dual_side=*/true, eo);
      sat::solver s;
      ASSERT_TRUE(s.add_cnf(dual_encoder.formula()) || true);
      const sat::solve_result verdict = s.solve();
      ASSERT_NE(verdict, sat::solve_result::unknown);
      EXPECT_EQ(verdict == sat::solve_result::sat,
                primal.status == lm_status::realizable)
          << text << " on " << d.str();
      if (verdict == sat::solve_result::sat) {
        const auto mapping = dual_encoder.decode(s);
        EXPECT_TRUE(mapping.realizes(t.function()))
            << "dual decode failed for " << text << " on " << d.str();
      }
    }
  }
}

/// The degree rules are a *designed approximation*: for the 3-input
/// not-all-equal function (whose minimum ISOP has 3 products but whose
/// Minato ISOP has 4), they must not cause false UNSAT now that the exact
/// minimizer provides the minimum cover.
TEST(LmSolver, DegreeRulesWithMinimumCoverStaySoundOnNae) {
  const target_spec t = target_spec::parse(3, "ab' + ac' + a'b + a'c");
  EXPECT_EQ(t.num_products(), 3u);  // exact minimizer found the 3-cube cover
  lattice_info_cache cache;
  lm_options with_rules;  // defaults: degree rules on
  const lm_result r = solve_lm(t, cache.get({2, 3}), with_rules);
  EXPECT_EQ(r.status, lm_status::realizable);
}

TEST(LmSolver, StrictRulesCanRejectRealizableInstances) {
  // approx-[6] behavior: strict product realization may say UNSAT where the
  // complete encoding says SAT. Find one such case in a tiny sweep and also
  // confirm strict never claims SAT on an unrealizable instance.
  lattice_info_cache cache;
  lm_options strict = complete_options();
  strict.encode.strict_product_rules = true;
  const lm_options complete = complete_options();
  int strict_rejections = 0;
  for (int bits = 1; bits < 255; ++bits) {
    bf::truth_table f(3);
    for (int m = 0; m < 8; ++m) {
      f.set(static_cast<std::uint64_t>(m), ((bits >> m) & 1) != 0);
    }
    if (f.is_zero() || f.is_one()) {
      continue;
    }
    const target_spec t = target_spec::from_function(f);
    const dims d{3, 3};
    const lm_result a = solve_lm(t, cache.get(d), strict);
    const lm_result b = solve_lm(t, cache.get(d), complete);
    if (a.status == lm_status::realizable) {
      EXPECT_EQ(b.status, lm_status::realizable);
      EXPECT_TRUE(a.mapping->realizes(f));
    } else if (b.status == lm_status::realizable) {
      ++strict_rejections;
    }
  }
  EXPECT_GT(strict_rejections, 0)
      << "strict rules should be a real restriction";
}

/// One side's scratch encoding built through lm_emitter the way
/// lm_encoder::build builds it, with the symmetry-breaking family optional
/// (lm_encoder always emits it).
struct side_encoding {
  std::vector<lattice::cell_assign> tl;
  lm_var_layout layout;
  sat::cnf formula;
};

side_encoding encode_side(const target_spec& t, const lattice_info& info,
                          bool dual_side, const lm_encode_options& o,
                          bool symmetry_breaking) {
  side_encoding out;
  out.tl = build_target_literals(t, dual_side, o);
  const bf::truth_table& fn = dual_side ? t.dual_function() : t.function();
  for (int cell = 0; cell < info.d.size(); ++cell) {
    out.layout.map_base.push_back(
        out.formula.new_vars(static_cast<int>(out.tl.size())));
    out.layout.val_base.push_back(
        out.formula.new_vars(static_cast<int>(fn.num_minterms())));
  }
  lm_emitter emitter(t, &info, dual_side, o, out.tl, out.layout, out.formula);
  for (int cell = 0; cell < info.d.size(); ++cell) {
    emitter.emit_exactly_one(cell);
    for (std::uint64_t e = 0; e < fn.num_minterms(); ++e) {
      emitter.emit_links(cell, e);
    }
  }
  for (std::uint64_t e = 0; e < fn.num_minterms(); ++e) {
    emitter.emit_entry(e, fn.get(e));
  }
  if (symmetry_breaking) {
    emitter.emit_symmetry_breaking();
  }
  emitter.emit_rules();
  return out;
}

/// The three non-identity reflections of an r×c lattice, as cell maps.
std::vector<std::vector<int>> reflections(const dims& d) {
  std::vector<std::vector<int>> out;
  for (const auto& [flip_rows, flip_cols] :
       {std::pair{false, true}, std::pair{true, false}, std::pair{true, true}}) {
    std::vector<int> image(static_cast<std::size_t>(d.size()));
    for (int cell = 0; cell < d.size(); ++cell) {
      const int row = d.row_of(cell);
      const int col = d.col_of(cell);
      image[static_cast<std::size_t>(cell)] =
          d.cell(flip_rows ? d.rows - 1 - row : row,
                 flip_cols ? d.cols - 1 - col : col);
    }
    out.push_back(std::move(image));
  }
  return out;
}

/// The TL index each cell is wired to in a model.
std::vector<std::size_t> wiring_of(const sat::solver& s,
                                   const side_encoding& enc) {
  std::vector<std::size_t> wiring;
  for (int cell = 0; cell < enc.layout.num_cells(); ++cell) {
    for (std::size_t j = 0; j < enc.tl.size(); ++j) {
      if (s.model_bool(enc.layout.map_lit(cell, j).variable())) {
        wiring.push_back(j);
      }
    }
  }
  return wiring;
}

/// The wiring as assumptions: cell k takes wiring[k].
std::vector<sat::lit> wiring_assumptions(const side_encoding& enc,
                                         const std::vector<std::size_t>& w) {
  std::vector<sat::lit> out;
  for (int cell = 0; cell < enc.layout.num_cells(); ++cell) {
    out.push_back(enc.layout.map_lit(cell, w[static_cast<std::size_t>(cell)]));
  }
  return out;
}

/// The claim behind emit_symmetry_breaking(): the encoding without it is
/// invariant under the three reflections, on both sides, with the rules and
/// helper facts on. Every model's wiring, reflected, must satisfy it again;
/// and the family itself must keep at most one of a wiring and a distinct
/// reflection of it.
TEST(SymmetryBreaking, EncodingIsInvariantUnderReflections) {
  lattice_info_cache cache;
  int rejected_images = 0;
  for (const char* text : {"ab + c", "abc + a'b'", "ab + b'c + ac'",
                           "abcd + a'b'cd'", "ab' + cd'"}) {
    const target_spec t = target_spec::parse(4, text);
    for (const dims d : {dims{2, 3}, dims{3, 3}, dims{3, 4}}) {
      const lattice_info& info = cache.get(d);
      for (const bool dual_side : {false, true}) {
        lm_encode_options o;  // degree rules and helper facts on
        o.long_product_threshold = 2;  // let the long-product rule fire too
        const side_encoding plain = encode_side(t, info, dual_side, o, false);
        const side_encoding broken = encode_side(t, info, dual_side, o, true);
        sat::solver enumerate;
        sat::solver check_plain;
        sat::solver check_broken;
        // A top-level conflict leaves the solver answering unsat.
        static_cast<void>(enumerate.add_cnf(plain.formula));
        static_cast<void>(check_plain.add_cnf(plain.formula));
        static_cast<void>(check_broken.add_cnf(broken.formula));
        // A handful of distinct models per instance.
        for (int model = 0; model < 4; ++model) {
          if (enumerate.solve() != sat::solve_result::sat) {
            break;
          }
          const std::vector<std::size_t> w = wiring_of(enumerate, plain);
          ASSERT_EQ(w.size(), static_cast<std::size_t>(d.size()));
          const bool w_kept = check_broken.solve(wiring_assumptions(
                                  broken, w)) == sat::solve_result::sat;
          for (const std::vector<int>& sigma : reflections(d)) {
            std::vector<std::size_t> reflected(w.size());
            for (std::size_t cell = 0; cell < w.size(); ++cell) {
              reflected[cell] = w[static_cast<std::size_t>(sigma[cell])];
            }
            EXPECT_EQ(check_plain.solve(wiring_assumptions(plain, reflected)),
                      sat::solve_result::sat)
                << text << " on " << d.str() << (dual_side ? " (dual)" : "");
            if (reflected != w) {
              const bool image_kept =
                  check_broken.solve(wiring_assumptions(broken, reflected)) ==
                  sat::solve_result::sat;
              EXPECT_FALSE(w_kept && image_kept)
                  << text << " on " << d.str() << ": both lex orders kept";
              rejected_images += (w_kept && image_kept) ? 0 : 1;
            }
          }
          std::vector<sat::lit> block;
          for (const sat::lit l : wiring_assumptions(plain, w)) {
            block.push_back(~l);
          }
          ASSERT_TRUE(enumerate.add_clause(block));
        }
      }
    }
  }
  EXPECT_GT(rejected_images, 0);
}

/// Symmetry breaking changes no verdict: all 3-input functions on a small
/// grid (odd widths give a self-mirrored column and a center cell), both
/// sides, with the complete encoding (genuine UNSAT) and the strict [6]
/// rules (rule-induced UNSAT).
TEST(SymmetryBreaking, VerdictsMatchTheUnbrokenEncoding) {
  lattice_info_cache cache;
  const lm_encode_options complete = complete_options().encode;
  lm_encode_options strict = complete;
  strict.strict_product_rules = true;
  const auto verdict = [](const side_encoding& enc) {
    sat::solver s;
    if (!s.add_cnf(enc.formula)) {
      return sat::solve_result::unsat;
    }
    return s.solve();
  };
  int genuine_unsat = 0;
  int rule_induced_unsat = 0;
  for (int bits = 1; bits < 255; ++bits) {
    bf::truth_table f(3);
    for (int m = 0; m < 8; ++m) {
      f.set(static_cast<std::uint64_t>(m), ((bits >> m) & 1) != 0);
    }
    const target_spec t = target_spec::from_function(f);
    for (const dims d : {dims{2, 3}, dims{3, 3}}) {
      const lattice_info& info = cache.get(d);
      for (const bool dual_side : {false, true}) {
        sat::solve_result complete_verdict = sat::solve_result::unknown;
        for (const bool use_strict : {false, true}) {
          const lm_encode_options& o = use_strict ? strict : complete;
          const sat::solve_result plain =
              verdict(encode_side(t, info, dual_side, o, false));
          const sat::solve_result broken =
              verdict(encode_side(t, info, dual_side, o, true));
          ASSERT_NE(plain, sat::solve_result::unknown);
          ASSERT_EQ(plain, broken)
              << "f=" << f.to_binary_string() << " on " << d.str()
              << (dual_side ? " (dual)" : "")
              << (use_strict ? " strict" : " complete");
          if (!use_strict) {
            complete_verdict = plain;
            genuine_unsat += plain == sat::solve_result::unsat ? 1 : 0;
          } else if (plain == sat::solve_result::unsat &&
                     complete_verdict == sat::solve_result::sat) {
            ++rule_induced_unsat;
          }
        }
      }
    }
  }
  EXPECT_GT(genuine_unsat, 0);
  EXPECT_GT(rule_induced_unsat, 0);
}

TEST(ReachEncoding, AgreesOnDegenerateLattices) {
  const target_spec t = target_spec::parse(2, "ab");
  lm_options opt = complete_options();
  EXPECT_EQ(solve_lm_reachability(t, {2, 1}, opt).status,
            lm_status::realizable);
  EXPECT_EQ(solve_lm_reachability(t, {1, 1}, opt).status,
            lm_status::unrealizable);
  const target_spec s = target_spec::parse(2, "a + b");
  EXPECT_EQ(solve_lm_reachability(s, {1, 2}, opt).status,
            lm_status::realizable);
}

TEST(OnsetEntries, ListsMintermsWhereTheFunctionIsOne) {
  const bf::truth_table f = bf::cover::parse(2, "ab").to_truth_table();
  const auto entries = onset_entries(f);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], 3u);
}

}  // namespace
}  // namespace janus::lm
