// LM problem orchestration: structural check → encode → solve → decode and
// verify.
//
// Mirrors Section III-A end to end: the primal problem (f on 4-connected
// top–bottom paths) and the dual problem (f^D on 8-connected left–right
// paths) decide the same question; a timeout is treated as "not realizable on
// this lattice" by callers — the designed source of approximation.
//
// Execution modes (selected by `lm_options::exec`):
//   * sequential (exec.pool == nullptr, the jobs=1 fallback): the side with
//     the smaller estimated clause count is built and solved; the loser is
//     never constructed, halving peak encode memory versus building both.
//   * racing (a pool is available): both sides are encoded and solved on two
//     workers; the first definitive SAT/UNSAT answer wins and cancels the
//     sibling mid-solve via its stop flag. Wall-clock becomes min(primal,
//     dual) instead of the estimate-picked side, and a wrong cheapness
//     estimate no longer costs anything.
//
// Orthogonally, `lm_options::sessions` switches each side from the scratch
// encoder+solver to a leased incremental session (see lm_session.hpp): the
// same verdicts, but learned clauses persist across the caller's probe
// ladder and proven-unrealizable dimensions short-circuit dominated probes.
#pragma once

#include <optional>

#include "exec/exec.hpp"
#include "lm/encoding.hpp"
#include "lm/lm_session.hpp"
#include "util/timer.hpp"

namespace janus::lm {

enum class lm_status : std::uint8_t {
  realizable,    ///< SAT; `mapping` holds a verified realization
  unrealizable,  ///< UNSAT (under the active heuristic rules) or structural fail
  unknown,       ///< budget expired before an answer
  skipped,       ///< lattice too large to encode (path cap exceeded)
  cancelled,     ///< externally cancelled (a racing sibling already answered)
};

struct lm_options {
  lm_encode_options encode;
  /// SAT solver configuration for every solver this call touches: the
  /// scratch path constructs its solvers with it, and session pools should
  /// be constructed with the same value.
  sat::solver_options solver = default_lm_solver_options();
  double sat_time_limit_s = 1200.0;  // the paper's empirically chosen limit
  std::int64_t conflict_budget = -1;
  bool allow_dual_problem = true;
  /// Candidates whose cheaper side would still exceed this many clauses are
  /// skipped outright (estimated before construction; bounds memory and
  /// encode time on wide-input targets).
  std::uint64_t max_encoding_clauses = 4'000'000;
  /// Pool + cancellation. A null pool runs the sequential path; with a pool,
  /// primal and dual race whenever both sides fit the clause budget.
  exec::context exec;
  /// Incremental sessions (nullptr = scratch mode). When set, each side of a
  /// probe leases a persistent per-(target, side) solver from this pool
  /// instead of building a fresh encoder + solver, keeping learned clauses
  /// across the dichotomic ladder; rule-free UNSAT cores feed the pool's
  /// frontier and dominated dimensions are answered without solving. The
  /// pool must belong to the same target being solved, and must have been
  /// constructed with the same `encode` options as this struct — session
  /// probes encode with the pool's stored options, so a mismatch would
  /// silently break scratch/session parity.
  lm_session_pool* sessions = nullptr;
};

struct lm_result {
  lm_status status = lm_status::skipped;
  std::optional<lattice::lattice_mapping> mapping;
  bool used_dual_problem = false;
  /// UNSAT independent of the heuristic rule clauses (rule-free conflict
  /// core in session mode, structural rejection, or dominance by the
  /// session pool's frontier). NOT an exactness certificate: the core still
  /// bakes in the active TL restriction (`tl_isop_literals_only`), so this
  /// means "unrealizable under the active encoding options" — which is
  /// dims-independent and monotone in rows and columns, the two properties
  /// frontier pruning needs for scratch-parity.
  bool definitely_unrealizable = false;
  lm_encoding_stats encoding;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Accumulated SAT counters of every solver this call ran (both race sides
  /// when racing); batch synthesis aggregates these across targets.
  sat::solver_stats solver;
};

/// Decide (approximately) whether `target` fits the lattice described by
/// `info`, within `budget`.
[[nodiscard]] lm_result solve_lm(const target_spec& target,
                                 const lattice_info& info,
                                 const lm_options& options,
                                 deadline budget = deadline::never());

}  // namespace janus::lm
