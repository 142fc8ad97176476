// ladder_seq / ladder_par: the Table II rows with at most 6 inputs and 8
// products (14 targets) through one synthesize_batch per pass, no solution
// store, default janus_options. The run repeats the pass at least three times
// and for as many more as fit in the requested seconds, and reports the median
// pass.
#include <algorithm>
#include <cstdio>
#include <utility>

#include "backend/backend.hpp"
#include "instances/table2.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using janus::lm::lm_status;
using janus::lm::target_spec;
using janus::synth::batch_result;

constexpr int kMaxInputs = 6;
constexpr int kMaxProducts = 8;
/// Rows with this many inputs keep the canonical stand-in (salt 0) at every
/// seed: re-rolled 6-input stand-ins range from 0.01 s to well over 400 s per
/// ladder (see README.md), so a re-rolled pass would measure which salt came
/// up rather than the code. Smaller rows are re-rolled by the seed.
constexpr int kCanonicalInputs = 6;
/// setup_s is the median of this many corpus generations. The re-rolled rows
/// take 0.008-0.039 s of generator attempts depending on the salt, so the
/// k-th generation uses salt seed + k: setup_s is a median over salts rather
/// than the cost of one roll. The passes use generation 0, the seed's own.
constexpr int kSetupRepeats = 9;
constexpr int kMinPasses = 3;
/// Per-target budget: a target that needs it has failed (its answer would
/// depend on timing), and it keeps a pathological regression inside the
/// run's time limit.
constexpr double kTargetBudgetS = 40.0;

struct corpus {
  std::vector<target_spec> targets;
  std::vector<std::string> names;
};

corpus build_corpus(std::uint64_t seed) {
  corpus c;
  for (const auto& row : janus::instances::table2_rows()) {
    if (row.inputs > kMaxInputs || row.products > kMaxProducts) {
      continue;
    }
    const std::uint64_t salt = row.inputs >= kCanonicalInputs ? 0 : seed;
    c.targets.push_back(
        janus::instances::make_table2_instance(row, nullptr, salt));
    c.names.push_back(row.name);
  }
  return c;
}

struct pass {
  batch_result batch;
  double wall = 0.0;
  double cpu = 0.0;
};

pass run_pass(const corpus& c, int jobs) {
  janus::synth::batch_options options;
  options.jobs = jobs;
  options.per_target_time_limit_s = kTargetBudgetS;
  pass p;
  const double cpu0 = process_cpu_seconds();
  janus::stopwatch clock;
  p.batch = janus::synth::synthesize_batch(c.targets, options);
  p.wall = clock.seconds();
  p.cpu = process_cpu_seconds() - cpu0;
  return p;
}

/// The counters ladder_seq must repeat exactly from pass to pass.
std::vector<std::uint64_t> counters(const batch_result& b) {
  const auto& s = b.solver_totals;
  return {s.conflicts,       s.propagations,       s.decisions,
          s.learned_clauses, s.eliminated_vars,    s.vivified,
          s.subsumed,        s.strengthened,       s.substituted_vars,
          s.probed_failed_lits, b.total_probes,    b.pruned_probes};
}

/// Check one pass target by target; `first` (when set) is the run's first
/// pass, whose sizes every later pass must reproduce.
void check_pass(const corpus& c, const pass& p, const pass* first, int jobs,
                outcome& out) {
  for (std::size_t i = 0; i < c.targets.size(); ++i) {
    ++out.attempted;
    const std::string& name = c.names[i];
    if (i >= p.batch.results.size()) {
      out.fail(name + ": no result");
      continue;
    }
    const auto& r = p.batch.results[i];
    if (!r.solution.has_value()) {
      out.fail(name + ": no verified solution");
      continue;
    }
    if (r.hit_time_limit) {
      out.fail(name + ": hit its time budget");
      continue;
    }
    const bool unknown = std::any_of(
        r.probes.begin(), r.probes.end(),
        [](const auto& probe) { return probe.status == lm_status::unknown; });
    if (unknown) {
      out.fail(name + ": a probe ended unknown");
      continue;
    }
    const std::string bad = check_realization(
        *r.solution, c.targets[i].function(), r.lower_bound);
    if (!bad.empty()) {
      out.fail(name + ": " + bad);
      continue;
    }
    if (first != nullptr &&
        first->batch.results[i].solution_size() != r.solution_size()) {
      out.fail(name + ": size changed between passes");
    }
  }
  if (jobs == 1 && first != nullptr &&
      counters(first->batch) != counters(p.batch)) {
    out.fail("ladder_seq counters differ between passes");
  }
}

int switches(const batch_result& b) {
  int total = 0;
  for (const auto& r : b.results) {
    total += r.solution_size();
  }
  return total;
}

/// The service's warm path over the corpus, one span per layer call: a
/// table request through service::parse_request, the table through the bf
/// parser, then NP canonicalization, lookup and a separate realizes() of
/// the looked-up mapping against a store holding this pass's solutions;
/// and one esop backend run per target. It times the layers a repeat
/// request for these functions would cross.
void replay_warm_path(const corpus& c, const batch_result& b, tracer& tr,
                      outcome& out) {
  janus::cache::solution_cache store;
  for (std::size_t i = 0; i < c.targets.size(); ++i) {
    const auto& r = b.results[i];
    if (r.solution.has_value()) {
      store.store(c.targets[i].function(), *r.solution, r.lower_bound);
    }
  }
  scoped_span root(tr, "replay_warm_path");
  for (const target_spec& t : c.targets) {
    const std::string bits = t.function().to_binary_string();
    trace_warm_request("{\"v\":1,\"op\":\"synth\",\"n\":" +
                           std::to_string(t.num_vars()) + ",\"table\":\"" +
                           bits + "\"}",
                       "", bits, {t}, store, tr, root.id());
    scoped_span span(tr, "make_backend(esop)->run", root.id());
    janus::backend::backend_request req;
    req.target = t;
    const auto result = janus::backend::make_backend("esop")->run(req);
    span.attr("conflicts", static_cast<double>(result.sat.conflicts));
    span.attr("cost", result.cost());
  }
  add_warm_path_layers(tr, store.stats(), out);
  out.add("backend.esop_ms",
          median(tr.durations("make_backend(esop)->run")) * 1e3, "ms");
  out.add("backend.conflicts",
          tr.attr_sum("make_backend(esop)->run", "conflicts"), "count");
}

/// The traced ladder run: one pass inside a synthesize_batch span, then the
/// shared per-layer replay and the warm-path replay.
void traced_run(const corpus& c, int jobs, const pass& untraced, tracer& tr,
                outcome& out) {
  pass p;
  {
    scoped_span span(tr, "synthesize_batch");
    p = run_pass(c, jobs);
    const auto& s = p.batch.solver_totals;
    span.attr("jobs", jobs);
    span.attr("conflicts", static_cast<double>(s.conflicts));
    span.attr("propagations", static_cast<double>(s.propagations));
    span.attr("probes", static_cast<double>(p.batch.total_probes));
    span.attr("pruned_probes", static_cast<double>(p.batch.pruned_probes));
    span.attr("switches", switches(p.batch));
  }
  check_pass(c, p, &untraced, jobs, out);
  add_synthesis_layers(c.targets, p.batch, tr, out);
  replay_warm_path(c, p.batch, tr, out);
  out.add("exec.cpu_s", p.cpu, "s");
  out.add("exec.busy_frac", p.cpu / (p.wall * jobs), "ratio");
  out.add("trace.overhead_pct",
          100.0 * (p.wall - untraced.wall) / untraced.wall, "%");
}

}  // namespace

outcome run_ladder(const run_options& options, int jobs) {
  outcome out;
  std::vector<double> setup_s;
  corpus c;
  for (int k = 0; k < kSetupRepeats; ++k) {
    janus::stopwatch clock;
    corpus generated =
        build_corpus(options.seed + static_cast<std::uint64_t>(k));
    setup_s.push_back(clock.seconds());
    if (k == 0) {
      c = std::move(generated);
    }
  }

  tracer tr(options.trace);
  std::vector<pass> passes;
  janus::stopwatch run_clock;
  // After the minimum, start another pass only if one more like the last
  // still ends within --seconds, so a run does not overshoot by a pass.
  while (static_cast<int>(passes.size()) < (options.trace ? 1 : kMinPasses) ||
         (!options.trace &&
          run_clock.seconds() + passes.back().wall <= options.seconds)) {
    passes.push_back(run_pass(c, jobs));
    check_pass(c, passes.back(), passes.size() > 1 ? &passes.front() : nullptr,
               jobs, out);
    std::fprintf(stderr,
                 "  pass %zu: %.3f s (%.3f s CPU), %llu conflicts, %d switches\n",
                 passes.size(), passes.back().wall, passes.back().cpu,
                 static_cast<unsigned long long>(
                     passes.back().batch.solver_totals.conflicts),
                 switches(passes.back().batch));
  }

  std::vector<double> walls;
  for (const pass& p : passes) {
    walls.push_back(p.wall);
  }
  const double wall = median(walls);
  if (options.trace) {
    traced_run(c, jobs, passes.front(), tr, out);
    if (!tr.write(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
    }
    return out;
  }
  out.add("setup_s", median(setup_s), "s");
  out.add("wall_s", wall, "s");
  out.add("rps", static_cast<double>(c.targets.size()) / wall, "1/s");
  out.add("switches_total", switches(passes.front().batch), "count");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
