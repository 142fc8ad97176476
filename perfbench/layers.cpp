// Per-layer helpers shared by the traced runs of every workload: the
// synthesis layers of one batch (sat.*, lm.*, synth.*) and the warm path of
// a repeat request below the service (bf.*, cache.*, lattice.*,
// service.parse_us).
#include <algorithm>

#include "bf/pla.hpp"
#include "lm/lm_solver.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using janus::lm::lm_status;
using janus::lm::target_spec;
using janus::synth::batch_result;

void add_synthesis_layers(const std::vector<target_spec>& targets,
                          const batch_result& batch, tracer& tr,
                          outcome& out) {
  double unsat_s = 0.0;
  double sat_s = 0.0;
  double unsat_n = 0.0;
  double cancelled_n = 0.0;
  double sessions = 0.0;
  double critical = 0.0;
  for (const auto& r : batch.results) {
    for (const auto& probe : r.probes) {
      if (probe.status == lm_status::unrealizable) {
        unsat_s += probe.seconds;
        ++unsat_n;
      } else if (probe.status == lm_status::realizable) {
        sat_s += probe.seconds;
      } else if (probe.status == lm_status::cancelled) {
        ++cancelled_n;
      }
    }
    sessions += static_cast<double>(r.sessions_created);
    critical = std::max(critical, r.seconds);
  }

  // Replay: each target's bounds and every probe it solved run again, one
  // span each, through compute_bounds and solve_lm on a fresh session pool.
  janus::lm::lattice_info_cache infos(janus::synth::janus_options{}.max_paths);
  double ladder_self = 0.0;
  {
    scoped_span replay(tr, "replay");
    for (std::size_t i = 0; i < targets.size() && i < batch.results.size();
         ++i) {
      const target_spec& t = targets[i];
      const auto& r = batch.results[i];
      scoped_span target(tr, "target", replay.id());
      double bounds_s = 0.0;
      {
        janus::stopwatch clock;
        scoped_span span(tr, "janus_synthesizer::compute_bounds", target.id());
        janus::synth::janus_synthesizer engine;
        const auto report = engine.compute_bounds(t, janus::deadline::never());
        span.attr("lower_bound", report.lower_bound);
        bounds_s = clock.seconds();
      }
      janus::lm::lm_options lm = janus::synth::janus_options{}.lm;
      janus::lm::lm_session_pool pool(t, lm.encode, lm.solver);
      lm.sessions = &pool;
      double probe_s = 0.0;
      for (const auto& probe : r.probes) {
        probe_s += probe.seconds;
        // Cancelled probes never finished; zero-time UNSAT entries were
        // answered from the frontier without a solve.
        if (probe.status == lm_status::cancelled ||
            (probe.status == lm_status::unrealizable && probe.seconds == 0.0)) {
          continue;
        }
        scoped_span span(tr, "lm::solve_lm", target.id());
        const auto result = janus::lm::solve_lm(t, infos.get(probe.d), lm);
        span.attr("rows", probe.d.rows);
        span.attr("cols", probe.d.cols);
        span.attr("status", static_cast<double>(result.status));
        span.attr("recorded_seconds", probe.seconds);
        span.attr("encode_seconds", result.encode_seconds);
        span.attr("solve_seconds", result.solve_seconds);
        span.attr("clauses", static_cast<double>(result.encoding.num_clauses));
        span.attr("vars", static_cast<double>(result.encoding.num_vars));
        span.attr("conflicts", static_cast<double>(result.solver.conflicts));
      }
      if (!r.from_cache) {
        ladder_self += std::max(0.0, r.seconds - bounds_s - probe_s);
      }
    }
  }

  const auto& s = batch.solver_totals;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  out.add("sat.conflicts", u(s.conflicts), "count");
  out.add("sat.propagations", u(s.propagations), "count");
  out.add("sat.decisions", u(s.decisions), "count");
  out.add("sat.learned_clauses", u(s.learned_clauses), "count");
  out.add("sat.unsat_probe_s", unsat_s, "s");
  out.add("sat.sat_probe_s", sat_s, "s");
  out.add("sat.eliminated_vars", u(s.eliminated_vars), "count");
  out.add("sat.vivified", u(s.vivified), "count");
  out.add("sat.subsumed", u(s.subsumed), "count");
  out.add("sat.strengthened", u(s.strengthened), "count");
  out.add("sat.substituted_vars", u(s.substituted_vars), "count");
  out.add("sat.probed_failed_lits", u(s.probed_failed_lits), "count");
  out.add("lm.encode_s", tr.attr_sum("lm::solve_lm", "encode_seconds"), "s");
  out.add("lm.clauses", tr.attr_sum("lm::solve_lm", "clauses"), "count");
  out.add("lm.vars", tr.attr_sum("lm::solve_lm", "vars"), "count");
  out.add("lm.sessions_created", sessions, "count");
  out.add("synth.bounds_s",
          tr.total_seconds("janus_synthesizer::compute_bounds"), "s");
  out.add("synth.probes", u(batch.total_probes), "count");
  out.add("synth.probes_unsat", unsat_n, "count");
  out.add("synth.probes_pruned", u(batch.pruned_probes), "count");
  out.add("synth.probes_cancelled", cancelled_n, "count");
  out.add("synth.ladder_self_s", ladder_self, "s");
  out.add("synth.critical_path_s", critical, "s");
}

void trace_warm_request(const std::string& line, const std::string& pla,
                        const std::string& bits,
                        const std::vector<target_spec>& targets,
                        janus::cache::solution_cache& store, tracer& tr,
                        int parent) {
  {
    scoped_span span(tr, "service::parse_request", parent);
    const auto parsed = janus::service::parse_request(
        line, janus::service::protocol_limits{});
    span.attr("ok", parsed.req.has_value() ? 1 : 0);
  }
  {
    scoped_span span(tr, "bf::parse", parent);
    if (!pla.empty()) {
      span.attr("outputs", janus::bf::read_pla_string(pla).num_outputs);
    } else {
      span.attr("vars",
                janus::bf::truth_table::from_binary_string(bits).num_vars());
    }
  }
  for (const target_spec& t : targets) {
    if (t.is_constant()) {
      continue;
    }
    janus::bf::np_canonical canon;
    {
      scoped_span span(tr, "solution_cache::canonicalize", parent);
      canon = store.canonicalize(t.function());
    }
    std::optional<janus::cache::cached_solution> hit;
    {
      scoped_span span(tr, "solution_cache::lookup", parent);
      hit = store.lookup(canon, t.function());
      span.attr("hit", hit.has_value() ? 1 : 0);
    }
    if (hit.has_value()) {
      scoped_span span(tr, "lattice_mapping::realizes", parent);
      span.attr("ok", hit->mapping.realizes(t.function()) ? 1 : 0);
    }
  }
}

void add_warm_path_layers(const tracer& tr,
                          const janus::cache::cache_stats& stats,
                          outcome& out) {
  const auto median_us = [&](std::string_view name) {
    return median(tr.durations(name)) * 1e6;
  };
  const auto hits = static_cast<double>(stats.hits);
  const auto misses = static_cast<double>(stats.misses);
  out.add("service.parse_us", median_us("service::parse_request"), "us");
  out.add("bf.parse_us", median_us("bf::parse"), "us");
  out.add("bf.np_canon_us", median_us("solution_cache::canonicalize"), "us");
  out.add("cache.lookup_us", median_us("solution_cache::lookup"), "us");
  out.add("cache.hits", hits, "count");
  out.add("cache.misses", misses, "count");
  out.add("cache.stores", static_cast<double>(stats.stores), "count");
  out.add("cache.hit_rate", hits / std::max(1.0, hits + misses), "ratio");
  out.add("lattice.verify_us", median_us("lattice_mapping::realizes"), "us");
}

}  // namespace perfbench
