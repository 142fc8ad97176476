#include "lm/lm_solver.hpp"

#include "lm/structural.hpp"
#include "util/log.hpp"

namespace janus::lm {

namespace {

/// Everything one problem side (primal or dual) produced: encode + solve.
struct side_run {
  sat::solve_result verdict = sat::solve_result::unknown;
  bool ran = false;  ///< encoder built and solver invoked
  bool rule_free_unsat = false;  ///< UNSAT without the heuristic rules
  std::optional<lattice::lattice_mapping> mapping;
  lm_encoding_stats encoding;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  sat::solver_stats stats;
};

/// Encode and solve one side; the cancel token aborts the solve mid-search
/// (and skips the whole side when raised before the encode). Session mode
/// leases a persistent solver; scratch mode builds fresh.
side_run run_side(const target_spec& target, const lattice_info& info,
                  bool dual_side, const lm_options& options, deadline budget) {
  const exec::cancel_token& stop = options.cancel;
  side_run out;
  if (stop.cancelled() || budget.expired()) {
    return out;
  }

  if (options.sessions != nullptr) {
    lm_session_pool::lease session = options.sessions->acquire(dual_side);
    lm_session::probe_result pr =
        session->probe(info, budget, options.sat_time_limit_s,
                       options.conflict_budget, stop);
    out.verdict = pr.verdict;
    out.rule_free_unsat = pr.rule_free_unsat;
    out.mapping = std::move(pr.mapping);
    out.encoding = pr.encoding;
    out.encode_seconds = pr.encode_seconds;
    out.solve_seconds = pr.solve_seconds;
    out.stats = pr.solver_delta;
    out.ran = true;
    return out;
  }

  stopwatch encode_clock;
  const lm_encoder encoder(target, info, dual_side, options.encode);
  out.encoding = encoder.stats();
  out.encode_seconds = encode_clock.seconds();
  out.ran = true;

  JANUS_LOG(debug) << "LM " << info.d.str() << (dual_side ? " (dual)" : "")
                   << ": " << encoder.stats().num_vars << " vars, "
                   << encoder.stats().num_clauses << " clauses";

  stopwatch solve_clock;
  sat::solver s(options.solver);
  if (!s.add_cnf(encoder.formula())) {
    out.verdict = sat::solve_result::unsat;
    out.solve_seconds = solve_clock.seconds();
    out.stats = s.stats();
    return out;
  }
  s.set_deadline(budget.tightened(options.sat_time_limit_s));
  if (options.conflict_budget >= 0) {
    s.set_conflict_budget(options.conflict_budget);
  }
  s.set_stop_flag(stop.flag());
  out.verdict = s.solve();
  out.solve_seconds = solve_clock.seconds();
  out.stats = s.stats();
  if (out.verdict == sat::solve_result::sat) {
    out.mapping = encoder.decode(s);
  }
  return out;
}

/// Translate one finished side into the caller-facing result.
void fill_result(lm_result& result, side_run&& run, bool dual_side,
                 const target_spec& target, const lm_options& options) {
  result.used_dual_problem = dual_side;
  result.encoding = run.encoding;
  result.encode_seconds = run.encode_seconds;
  result.solve_seconds = run.solve_seconds;
  switch (run.verdict) {
    case sat::solve_result::unsat:
      result.status = lm_status::unrealizable;
      result.definitely_unrealizable = run.rule_free_unsat;
      break;
    case sat::solve_result::unknown:
      result.status = options.cancel.cancelled() ? lm_status::cancelled
                                                 : lm_status::unknown;
      break;
    case sat::solve_result::sat: {
      JANUS_CHECK(run.mapping.has_value());
      JANUS_CHECK_MSG(run.mapping->realizes(target.function()),
                      "SAT model fails ground-truth verification");
      result.mapping = std::move(run.mapping);
      result.status = lm_status::realizable;
      break;
    }
  }
}

}  // namespace

lm_result solve_lm(const target_spec& target, const lattice_info& info,
                   const lm_options& options, deadline budget) {
  lm_result result;
  if (options.cancel.cancelled()) {
    result.status = lm_status::cancelled;
    return result;
  }
  if (info.oversized) {
    result.status = lm_status::skipped;
    return result;
  }
  // Frontier short-circuit: a dims dominated by a proven-unrealizable one
  // cannot be realizable either, so no encoding or solving is needed. Only
  // genuine (rule-free) unrealizability enters the frontier, so this answers
  // exactly what a scratch solve would have answered.
  if (options.sessions != nullptr &&
      options.sessions->known_unrealizable(info.d)) {
    options.sessions->count_pruned_probe();
    result.status = lm_status::unrealizable;
    result.definitely_unrealizable = true;
    return result;
  }
  if (!structural_check(target, info)) {
    // The structural matching is a sound impossibility proof (Section
    // III-A), independent of any heuristic rule — frontier-worthy.
    result.status = lm_status::unrealizable;
    result.definitely_unrealizable = true;
    if (options.sessions != nullptr) {
      options.sessions->note_unrealizable(info.d);
    }
    return result;
  }

  const std::uint64_t primal_estimate =
      estimate_encoding_clauses(target, info, /*dual_side=*/false,
                                options.encode);
  const std::uint64_t dual_estimate =
      options.allow_dual_problem
          ? estimate_encoding_clauses(target, info, /*dual_side=*/true,
                                      options.encode)
          : ~std::uint64_t{0};
  const bool primal_feasible = primal_estimate <= options.max_encoding_clauses;
  const bool dual_feasible = options.allow_dual_problem &&
                             dual_estimate <= options.max_encoding_clauses;
  if (!primal_feasible && !dual_feasible) {
    result.status = lm_status::skipped;
    return result;
  }

  // Pick the side with the smaller estimated clause count and construct only
  // that encoder — the other is never built, so peak encode memory is one
  // formula, not two.
  const bool use_dual =
      dual_feasible && (!primal_feasible || dual_estimate < primal_estimate);
  side_run run = run_side(target, info, use_dual, options, budget);
  result.solver += run.stats;
  if (!run.ran) {
    // Cancelled or out of budget before the encode started.
    result.status = options.cancel.cancelled() ? lm_status::cancelled
                                               : lm_status::unknown;
    return result;
  }
  fill_result(result, std::move(run), use_dual, target, options);
  // Either side proving genuine unrealizability (rule-free UNSAT core)
  // extends the frontier: both sides decide the same question, so a hard
  // UNSAT from the dual view prunes future primal probes just the same.
  if (result.definitely_unrealizable && options.sessions != nullptr) {
    options.sessions->note_unrealizable(info.d);
  }
  return result;
}

}  // namespace janus::lm
