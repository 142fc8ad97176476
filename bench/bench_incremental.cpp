// Scratch vs. incremental-session dichotomic ladders on Table II instances.
//
// Runs the same single-target JANUS synthesis (jobs=1, so both modes probe
// the identical dims sequence modulo frontier pruning) once per mode and
// compares the total SAT work of the ladder: conflicts, propagations,
// decisions, probe count and wall-clock. Session mode must reproduce the
// scratch bounds and solution sizes exactly — the bench asserts it — while
// spending less solver work thanks to (a) learned clauses persisting across
// probes on the shared mapping/value core and (b) rule-free UNSAT cores
// pruning dominated dimensions outright.
//
// Output: a human summary on stderr and one JSON document on stdout; the
// same JSON is also written to the path in argv[1] (default
// BENCH_incremental.json) for the repo's perf trajectory.
// JANUS_BENCH_FULL=1 widens the instance set and budgets.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "instances/table2.hpp"
#include "synth/janus.hpp"
#include "util/timer.hpp"

namespace {

using janus::instances::table2_row;
using janus::instances::table2_rows;
using janus::lm::target_spec;

std::vector<target_spec> bench_targets(bool full, std::uint64_t seed) {
  // Instances small enough for seconds-scale ladders but with enough
  // dichotomic steps (lb < nub) that session reuse has something to amortize.
  const int max_inputs = full ? 8 : 6;
  const int max_products = full ? 12 : 8;
  const std::size_t max_instances = full ? 20 : 10;
  std::vector<target_spec> targets;
  for (const table2_row& row : table2_rows()) {
    if (row.inputs <= max_inputs && row.products <= max_products) {
      targets.push_back(
          janus::instances::make_table2_instance(row, nullptr, seed));
      if (targets.size() >= max_instances) {
        break;
      }
    }
  }
  return targets;
}

struct mode_totals {
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t probes = 0;
  std::uint64_t pruned = 0;
};

struct instance_report {
  std::string name;
  int size = 0;      // solution switches (must match across modes)
  int lb = 0;
  int nub = 0;
  mode_totals scratch;
  mode_totals session;
};

mode_totals totals_of(const janus::synth::janus_result& r) {
  mode_totals t;
  t.seconds = r.seconds;
  t.conflicts = r.sat_totals.conflicts;
  t.propagations = r.sat_totals.propagations;
  t.decisions = r.sat_totals.decisions;
  t.probes = r.probes.size();
  t.pruned = r.pruned_probes;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = std::getenv("JANUS_BENCH_FULL") != nullptr;
  const janus::bench::bench_args args =
      janus::bench::parse_bench_args(argc, argv);
  const char* json_path = args.path(0, "BENCH_incremental.json");
  const std::vector<target_spec> targets = bench_targets(full, args.seed);

  janus::synth::janus_options base;
  base.time_limit_s = full ? 120.0 : 30.0;
  base.lm.sat_time_limit_s = full ? 30.0 : 10.0;

  std::vector<instance_report> reports;
  mode_totals scratch_sum;
  mode_totals session_sum;
  bool sizes_match = true;
  for (const target_spec& t : targets) {
    instance_report rep;
    rep.name = t.name();

    janus::synth::janus_options scratch = base;
    scratch.incremental = false;
    janus::synth::janus_synthesizer scratch_engine(scratch);
    const janus::synth::janus_result sr = scratch_engine.run(t);

    janus::synth::janus_options session = base;
    session.incremental = true;
    janus::synth::janus_synthesizer session_engine(session);
    const janus::synth::janus_result ir = session_engine.run(t);

    rep.size = ir.solution_size();
    rep.lb = ir.lower_bound;
    rep.nub = ir.new_upper_bound;
    rep.scratch = totals_of(sr);
    rep.session = totals_of(ir);
    const bool match = sr.solution_size() == ir.solution_size() &&
                       sr.lower_bound == ir.lower_bound &&
                       sr.new_upper_bound == ir.new_upper_bound;
    sizes_match = sizes_match && match;
    std::fprintf(stderr,
                 "%-12s %2d switches  conflicts %8llu -> %8llu  "
                 "props %10llu -> %10llu  probes %3llu -> %3llu (%llu pruned) "
                 "%6.2fs -> %6.2fs%s\n",
                 rep.name.c_str(), rep.size,
                 static_cast<unsigned long long>(rep.scratch.conflicts),
                 static_cast<unsigned long long>(rep.session.conflicts),
                 static_cast<unsigned long long>(rep.scratch.propagations),
                 static_cast<unsigned long long>(rep.session.propagations),
                 static_cast<unsigned long long>(rep.scratch.probes),
                 static_cast<unsigned long long>(rep.session.probes),
                 static_cast<unsigned long long>(rep.session.pruned),
                 rep.scratch.seconds, rep.session.seconds,
                 match ? "" : "  [MISMATCH]");

    const auto acc = [](mode_totals& sum, const mode_totals& one) {
      sum.seconds += one.seconds;
      sum.conflicts += one.conflicts;
      sum.propagations += one.propagations;
      sum.decisions += one.decisions;
      sum.probes += one.probes;
      sum.pruned += one.pruned;
    };
    acc(scratch_sum, rep.scratch);
    acc(session_sum, rep.session);
    reports.push_back(std::move(rep));
  }

  const auto ratio = [](std::uint64_t scratch, std::uint64_t session) {
    return scratch > 0 ? static_cast<double>(session) /
                             static_cast<double>(scratch)
                       : 1.0;
  };
  const double speedup =
      session_sum.seconds > 0.0 ? scratch_sum.seconds / session_sum.seconds
                                : 0.0;
  std::fprintf(stderr,
               "total: conflicts x%.3f, propagations x%.3f, %llu/%llu probes "
               "pruned, %.2fx wall speedup, sizes %s\n",
               ratio(scratch_sum.conflicts, session_sum.conflicts),
               ratio(scratch_sum.propagations, session_sum.propagations),
               static_cast<unsigned long long>(session_sum.pruned),
               static_cast<unsigned long long>(scratch_sum.probes),
               speedup, sizes_match ? "identical" : "MISMATCH");

  std::string json;
  char line[512];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    json += line;
  };
  json += janus::bench::bench_json_header("incremental", args.seed);
  emit("  \"targets\": %zu,\n", targets.size());
  emit("  \"sizes_identical\": %s,\n", sizes_match ? "true" : "false");
  emit("  \"totals\": {\n");
  emit("    \"scratch\": {\"seconds\": %.3f, \"conflicts\": %llu, "
       "\"propagations\": %llu, \"decisions\": %llu, \"probes\": %llu},\n",
       scratch_sum.seconds,
       static_cast<unsigned long long>(scratch_sum.conflicts),
       static_cast<unsigned long long>(scratch_sum.propagations),
       static_cast<unsigned long long>(scratch_sum.decisions),
       static_cast<unsigned long long>(scratch_sum.probes));
  emit("    \"session\": {\"seconds\": %.3f, \"conflicts\": %llu, "
       "\"propagations\": %llu, \"decisions\": %llu, \"probes\": %llu, "
       "\"pruned_probes\": %llu},\n",
       session_sum.seconds,
       static_cast<unsigned long long>(session_sum.conflicts),
       static_cast<unsigned long long>(session_sum.propagations),
       static_cast<unsigned long long>(session_sum.decisions),
       static_cast<unsigned long long>(session_sum.probes),
       static_cast<unsigned long long>(session_sum.pruned));
  emit("    \"conflict_ratio\": %.4f,\n",
       ratio(scratch_sum.conflicts, session_sum.conflicts));
  emit("    \"propagation_ratio\": %.4f,\n",
       ratio(scratch_sum.propagations, session_sum.propagations));
  emit("    \"wall_speedup\": %.3f\n  },\n", speedup);
  emit("  \"instances\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const instance_report& r = reports[i];
    emit("    {\"name\": \"%s\", \"switches\": %d, \"lb\": %d, \"nub\": %d, "
         "\"scratch_conflicts\": %llu, \"session_conflicts\": %llu, "
         "\"scratch_propagations\": %llu, \"session_propagations\": %llu, "
         "\"scratch_probes\": %llu, \"session_probes\": %llu, "
         "\"pruned_probes\": %llu, "
         "\"scratch_seconds\": %.3f, \"session_seconds\": %.3f}%s\n",
         r.name.c_str(), r.size, r.lb, r.nub,
         static_cast<unsigned long long>(r.scratch.conflicts),
         static_cast<unsigned long long>(r.session.conflicts),
         static_cast<unsigned long long>(r.scratch.propagations),
         static_cast<unsigned long long>(r.session.propagations),
         static_cast<unsigned long long>(r.scratch.probes),
         static_cast<unsigned long long>(r.session.probes),
         static_cast<unsigned long long>(r.session.pruned),
         r.scratch.seconds, r.session.seconds,
         i + 1 < reports.size() ? "," : "");
  }
  emit("  ]\n}\n");

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_incremental: cannot write %s\n", json_path);
  }
  return sizes_match ? 0 : 1;
}
