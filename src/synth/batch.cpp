#include "synth/batch.hpp"

#include <algorithm>
#include <memory>
#include <string_view>

#include "util/log.hpp"

namespace janus::synth {

batch_result synthesize_batch(std::span<const lm::target_spec> targets,
                              const batch_options& options) {
  batch_result batch;
  const bool use_portfolio = !options.backends.empty();
  if (use_portfolio) {
    batch.portfolio.resize(targets.size());
  } else {
    batch.results.resize(targets.size());
  }
  stopwatch batch_clock;
  const double per_target = options.per_target_time_limit_s > 0.0
                                ? options.per_target_time_limit_s
                                : options.base.time_limit_s;
  const deadline total = options.total_time_limit_s > 0.0
                             ? deadline::in_seconds(options.total_time_limit_s)
                             : deadline::never();

  std::unique_ptr<exec::thread_pool> pool;
  if (options.jobs > 1) {
    pool = std::make_unique<exec::thread_pool>(
        static_cast<std::size_t>(options.jobs));
  }

  {
    exec::task_group group(pool.get());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      group.run([&, i] {
        // Per-target deadline, clipped by whatever remains of the batch
        // budget at the moment this target actually starts.
        const double budget = std::min(per_target, total.remaining_seconds());
        if (use_portfolio) {
          portfolio_options popts;
          popts.backends = options.backends;
          popts.base = options.base;
          popts.base.pool = pool.get();
          batch.portfolio[i] = run_portfolio(targets[i], popts,
                                             deadline::in_seconds(budget));
          const backend::backend_result* win = batch.portfolio[i].winning();
          JANUS_LOG(info) << "batch: " << targets[i].name() << " -> "
                          << (win != nullptr ? win->backend : "no winner");
          return;
        }
        janus_options per = options.base;
        per.time_limit_s = budget;
        per.pool = pool.get();  // sharding decides; the probes share the pool
        janus_synthesizer engine(per);
        batch.results[i] = engine.run(targets[i]);
        JANUS_LOG(info) << "batch: " << targets[i].name() << " -> "
                        << batch.results[i].solution_dims() << " ("
                        << batch.results[i].solution_size() << " switches)";
      });
    }
    group.wait();
  }

  for (const portfolio_result& p : batch.portfolio) {
    const backend::backend_result* win = p.winning();
    if (win != nullptr) {
      ++batch.solved;
      if (win->realized != nullptr &&
          std::string_view(win->realized->cost_unit()) == "switches") {
        batch.total_switches += win->cost();
      }
    }
    for (const backend::backend_result& entry : p.entries) {
      batch.solver_totals += entry.sat;
      batch.hit_time_limit =
          batch.hit_time_limit ||
          entry.status == backend::backend_status::timeout;
    }
  }
  for (const janus_result& r : batch.results) {
    batch.solver_totals += r.sat_totals;
    batch.total_probes += r.probes.size();
    batch.pruned_probes += r.pruned_probes;
    // Constant targets return before the cache is ever consulted
    // (ub_method "const"), so they belong in neither counter.
    if (options.base.solutions != nullptr && r.ub_method != "const") {
      ++(r.from_cache ? batch.cache_hits : batch.cache_misses);
    }
    if (r.solution.has_value()) {
      ++batch.solved;
      batch.total_switches += r.solution_size();
    }
    batch.hit_time_limit = batch.hit_time_limit || r.hit_time_limit;
  }
  batch.seconds = batch_clock.seconds();
  return batch;
}

}  // namespace janus::synth
