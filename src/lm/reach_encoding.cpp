#include "lm/reach_encoding.hpp"

#include <utility>
#include <vector>

#include "util/check.hpp"

namespace janus::lm {

namespace {

/// Emit the unrolled reachability constraints of every truth-table entry
/// of `f` on lattice `d` into `formula`, over the value variables of
/// `layout`.
void emit_reachability(const bf::truth_table& f, const lattice::dims& d,
                       const lm_var_layout& layout, sat::cnf& formula) {
  const int levels = d.size();  // BFS converges within #cells rounds
  for (std::uint64_t e = 0; e < f.num_minterms(); ++e) {
    const auto val = [&](int cell) { return layout.val_lit(cell, e); };

    // Level 0: reachable = ON and on the top row.
    std::vector<sat::lit> reach(static_cast<std::size_t>(d.size()));
    std::vector<bool> defined(static_cast<std::size_t>(d.size()), false);
    for (int c = 0; c < d.cols; ++c) {
      reach[static_cast<std::size_t>(d.cell(0, c))] = val(d.cell(0, c));
      defined[static_cast<std::size_t>(d.cell(0, c))] = true;
    }

    // Unroll: reach_k[cell] ⇔ val[cell] ∧ OR(prev self, prev 4-neighbors).
    for (int k = 1; k <= levels; ++k) {
      std::vector<sat::lit> next(static_cast<std::size_t>(d.size()));
      std::vector<bool> next_defined(static_cast<std::size_t>(d.size()),
                                     false);
      for (int rr = 0; rr < d.rows; ++rr) {
        for (int cc = 0; cc < d.cols; ++cc) {
          const int cell = d.cell(rr, cc);
          std::vector<sat::lit> sources;
          if (defined[static_cast<std::size_t>(cell)]) {
            sources.push_back(reach[static_cast<std::size_t>(cell)]);
          }
          const int nbrs[4][2] = {{rr - 1, cc}, {rr + 1, cc},
                                  {rr, cc - 1}, {rr, cc + 1}};
          for (const auto& n : nbrs) {
            if (n[0] < 0 || n[0] >= d.rows || n[1] < 0 || n[1] >= d.cols) {
              continue;
            }
            const int ncell = d.cell(n[0], n[1]);
            if (defined[static_cast<std::size_t>(ncell)]) {
              sources.push_back(reach[static_cast<std::size_t>(ncell)]);
            }
          }
          if (rr == 0) {
            sources.push_back(val(cell));  // top plate feeds every round
          }
          if (sources.empty()) {
            continue;  // provably unreachable at this depth
          }
          const sat::lit rk = sat::lit::make(formula.new_var());
          // rk -> val[cell]; rk -> OR(sources); val & source -> rk.
          formula.add_clause({~rk, val(cell)});
          std::vector<sat::lit> or_clause;
          or_clause.push_back(~rk);
          for (const sat::lit s : sources) {
            or_clause.push_back(s);
            formula.add_clause({~val(cell), ~s, rk});
          }
          formula.add_clause(or_clause);
          next[static_cast<std::size_t>(cell)] = rk;
          next_defined[static_cast<std::size_t>(cell)] = true;
        }
      }
      reach = std::move(next);
      defined = std::move(next_defined);
    }

    // Output constraint on the bottom row at the final level.
    std::vector<sat::lit> bottom;
    for (int c = 0; c < d.cols; ++c) {
      const int cell = d.cell(d.rows - 1, c);
      if (defined[static_cast<std::size_t>(cell)]) {
        bottom.push_back(reach[static_cast<std::size_t>(cell)]);
      }
    }
    if (f.get(e)) {
      // An empty `bottom` (no top-to-bottom connection in this grid at all)
      // adds the empty clause: the formula is contradictory by construction.
      formula.add_clause(bottom);
    } else {
      for (const sat::lit l : bottom) {
        formula.add_clause({~l});
      }
    }
  }
}

}  // namespace

lm_result solve_lm_reachability(const target_spec& target,
                                const lattice::dims& d,
                                const lm_options& options, deadline budget) {
  lm_result result;
  stopwatch encode_clock;

  // The reachability TL always offers every literal of every variable (the
  // ablation deliberately skips the ISOP filtering of the path encoding).
  lm_encode_options encode = options.encode;
  encode.tl_isop_literals_only = false;
  const std::vector<lattice::cell_assign> tl =
      build_target_literals(target, /*dual_side=*/false, encode);
  const bf::truth_table& f = target.function();

  sat::cnf formula;
  const lm_var_layout layout =
      lm_var_layout::contiguous(formula, d.size(), tl.size(), f.num_minterms());
  lm_emitter emitter(target, /*info=*/nullptr, /*dual_side=*/false, encode, tl,
                     layout, formula);
  for (int cell = 0; cell < d.size(); ++cell) {
    emitter.emit_exactly_one(cell);
    for (std::uint64_t e = 0; e < f.num_minterms(); ++e) {
      emitter.emit_links(cell, e);
    }
  }
  emit_reachability(f, d, layout, formula);
  result.encoding = emitter.stats();
  result.encoding.num_vars = static_cast<std::uint64_t>(formula.num_vars());
  result.encoding.num_clauses = formula.num_clauses();
  result.encode_seconds = encode_clock.seconds();

  stopwatch solve_clock;
  sat::solver s(options.solver);
  s.set_deadline(budget.tightened(options.sat_time_limit_s));
  s.set_conflict_budget(options.conflict_budget);
  s.set_stop_flag(options.cancel.flag());
  const sat::solve_result verdict =
      s.add_cnf(formula) ? s.solve() : sat::solve_result::unsat;
  result.solver = s.stats();
  result.solve_seconds = solve_clock.seconds();

  switch (verdict) {
    case sat::solve_result::unsat:
      result.status = lm_status::unrealizable;
      result.definitely_unrealizable = true;  // no heuristic rules involved
      break;
    case sat::solve_result::unknown:
      result.status = options.cancel.cancelled() ? lm_status::cancelled
                                                 : lm_status::unknown;
      break;
    case sat::solve_result::sat: {
      lattice::lattice_mapping mapping = decode_mapping(
          s, layout, tl, d, target.num_vars(), /*dual_side=*/false);
      JANUS_CHECK_MSG(mapping.realizes(f),
                      "reachability model fails ground-truth verification");
      result.mapping = std::move(mapping);
      result.status = lm_status::realizable;
      break;
    }
  }
  return result;
}

}  // namespace janus::lm
