// The portfolio: several synthesis backends racing on one target.
//
// Reuses the probe fan-out's racing pattern: every requested backend gets
// its own cancel_source linked under `base.lm.cancel` and runs, with
// `base.pool` cleared, as one task on `base.pool` (or on a pool this call
// owns when handed none). The FIRST backend to return a definitive
// answer (a converged, verified realization) cancels every sibling
// mid-solve, so the portfolio's wall-clock tracks the fastest engine
// instead of the sum.
//
// Winner selection is completion-order independent: among the backends that
// did finish definitively, the one earliest in the request order (the
// registry's priority order by default) wins — the same rank-based rule the
// probe fan-out uses. With `race = false` (the CLI's compare mode, the fuzz
// axis, per-backend bench columns) nothing is cancelled: every backend runs
// to completion and the full cost table is reproducible run to run.
#pragma once

#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "synth/janus.hpp"

namespace janus::synth {

struct portfolio_options {
  /// Backend names to race, in priority order (ties in definitive finishes
  /// go to the earliest). Empty = every registered backend.
  std::vector<std::string> backends;

  janus_options base;  ///< shared tuning, caches, stop token and pool

  /// Cancel siblings once one backend is definitive. Off = compare mode:
  /// all backends run to completion (no intra-target cancellation).
  bool race = true;

  /// Racing pool width when the caller provides no pool; 0 = one worker
  /// per backend. Ignored when `base.pool` is already set (batch mode) —
  /// then backends nest on the caller's pool.
  int jobs = 0;
};

struct portfolio_result {
  /// One entry per requested backend, in request order.
  std::vector<backend::backend_result> entries;
  int winner = -1;  ///< index into `entries`; -1 = no definitive finisher
  double seconds = 0.0;

  [[nodiscard]] const backend::backend_result* winning() const {
    return winner >= 0 ? &entries[static_cast<std::size_t>(winner)] : nullptr;
  }
};

/// Race (or, with race=false, survey) the requested backends on one target.
/// `dl` is the per-target budget every backend receives.
[[nodiscard]] portfolio_result run_portfolio(const lm::target_spec& target,
                                             const portfolio_options& options,
                                             deadline dl = deadline::never());

}  // namespace janus::synth
