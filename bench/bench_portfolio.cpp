// Portfolio bench: the Table II targets with <= 6 inputs, each synthesized
// by every portfolio backend standalone ({janus, exact6, esop, chain}, the
// cross-representation core of the registry) and once more by the racing
// portfolio over the same four. Emits BENCH_portfolio.json.
//
// Checks, all fatal on violation:
//   - every solved realization passes its engine's independent oracle;
//   - solo costs are bit-identical between jobs=1 and jobs=4 (skipped for
//     runs that hit their budget — agreement is undefined mid-ladder);
//   - exact6 never loses to janus on targets both solved;
//   - every backend either wins >= 1 race or reports a sound reason on every
//     target (solved-but-outranked, or a budget timeout — never `failed`);
//   - the racing portfolio's wall stays within the fastest solo wall plus a
//     dispatch allowance — enforced only when the machine has at least one
//     hardware thread per backend (racing on fewer cores serializes the
//     losers ahead of the cancel, so the bound is recorded but advisory;
//     the committed baseline was produced on such a machine).
//
// JSON goes to argv[1] (default BENCH_portfolio.json). JANUS_BENCH_SMOKE=1
// shrinks to the first 5 targets with 2s budgets (the CI smoke job);
// JANUS_BENCH_FULL=1 widens budgets.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "bench_args.hpp"
#include "instances/table2.hpp"
#include "synth/portfolio.hpp"
#include "util/timer.hpp"

namespace {

using janus::backend::backend_result;
using janus::backend::backend_status;

const std::vector<std::string>& bench_backends() {
  static const std::vector<std::string> names = {"janus", "exact6", "esop",
                                                 "chain"};
  return names;
}

struct solo_run {
  backend_result result;
  int jobs4_cost = -1;     ///< -1 = rerun skipped (budget hit)
  bool jobs_match = true;  ///< jobs=4 cost equals jobs=1 cost
  bool verified = true;    ///< realization passed its oracle (when present)
};

/// `pool` null = jobs=1; the determinism rerun hands in a pool of 4.
backend_result run_solo(const std::string& name,
                        const janus::lm::target_spec& target, double budget_s,
                        janus::exec::thread_pool* pool) {
  const auto engine = janus::backend::make_backend(name);
  janus::backend::backend_request request;
  request.target = target;
  request.dl = janus::deadline::in_seconds(budget_s);
  request.base.pool = pool;
  request.base.time_limit_s = budget_s;
  request.base.lm.sat_time_limit_s = budget_s;
  return engine->run(request);
}

const char* status_json(const backend_result& r) {
  return janus::backend::backend_status_name(r.status);
}

}  // namespace

int main(int argc, char** argv) {
  const janus::bench::bench_args args =
      janus::bench::parse_bench_args(argc, argv);
  const char* json_path = args.path(0, "BENCH_portfolio.json");
  const bool smoke = std::getenv("JANUS_BENCH_SMOKE") != nullptr;
  const bool full = std::getenv("JANUS_BENCH_FULL") != nullptr;
  const double budget_s = smoke ? 2.0 : (full ? 60.0 : 6.0);

  std::vector<janus::lm::target_spec> targets;
  std::vector<int> inputs;
  for (const janus::instances::table2_row& row :
       janus::instances::table2_rows()) {
    if (row.inputs > 6) {
      continue;  // the chain backend caps at 6 inputs; keep the grid square
    }
    targets.push_back(janus::instances::make_table2_instance(row, nullptr,
                                                             args.seed));
    inputs.push_back(row.inputs);
    if (smoke && targets.size() >= 5) {
      break;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const bool enforce_wall = hw >= bench_backends().size();
  std::fprintf(stderr,
               "bench_portfolio: %zu targets, %zu backends, %.0fs budget, "
               "hardware threads=%u (wall bound %s)\n",
               targets.size(), bench_backends().size(), budget_s, hw,
               enforce_wall ? "enforced" : "advisory");

  bool all_verified = true;
  bool jobs_identical = true;
  bool wall_ok = true;
  bool any_failed = false;
  std::map<std::string, int> wins;
  std::map<std::string, bool> sound;  // never `failed` across all targets
  for (const std::string& name : bench_backends()) {
    wins[name] = 0;
    sound[name] = true;
  }

  janus::exec::thread_pool pool4(4);
  std::vector<std::map<std::string, solo_run>> solo(targets.size());
  std::vector<janus::synth::portfolio_result> races(targets.size());
  std::vector<double> min_solo_wall(targets.size(), 0.0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const janus::bf::truth_table f = targets[i].function();
    double fastest = budget_s * 2.0;
    for (const std::string& name : bench_backends()) {
      solo_run run;
      run.result = run_solo(name, targets[i], budget_s, nullptr);
      if (run.result.status == backend_status::failed) {
        sound[name] = false;
        any_failed = true;
      }
      if (run.result.realized != nullptr &&
          !run.result.realized->verify(f)) {
        run.verified = false;
        all_verified = false;
      }
      if (run.result.status == backend_status::solved) {
        fastest = std::min(fastest, run.result.seconds);
        // Determinism column: the same backend at jobs=4 must land on the
        // same cost (PR 1 contract for the lattice engines; the ESOP and
        // chain encodings do not consult the knob at all).
        const backend_result rerun = run_solo(name, targets[i], budget_s, &pool4);
        if (rerun.status == backend_status::solved) {
          run.jobs4_cost = rerun.cost();
          run.jobs_match = rerun.cost() == run.result.cost();
          jobs_identical = jobs_identical && run.jobs_match;
        }
      }
      solo[i].emplace(name, std::move(run));
    }
    min_solo_wall[i] = fastest;

    const auto& je = solo[i].at("janus").result;
    const auto& xe = solo[i].at("exact6").result;
    if (je.status == backend_status::solved &&
        xe.status == backend_status::solved && xe.optimal &&
        je.cost() < xe.cost()) {
      std::fprintf(stderr, "FAIL: %s: janus (%d) beat exact6 (%d)\n",
                   targets[i].name().c_str(), je.cost(), xe.cost());
      any_failed = true;
    }

    janus::synth::portfolio_options popts;
    popts.backends = bench_backends();
    popts.base.time_limit_s = budget_s;
    popts.base.lm.sat_time_limit_s = budget_s;
    races[i] = janus::synth::run_portfolio(
        targets[i], popts, janus::deadline::in_seconds(budget_s));
    const backend_result* win = races[i].winning();
    if (win != nullptr) {
      ++wins[win->backend];
      if (!win->realized->verify(f)) {
        all_verified = false;
        std::fprintf(stderr, "FAIL: %s: race winner %s fails its oracle\n",
                     targets[i].name().c_str(), win->backend.c_str());
      }
    }
    const double allowance = std::max(0.25, 0.25 * min_solo_wall[i]);
    const bool within = races[i].seconds <= min_solo_wall[i] + allowance;
    if (!within && enforce_wall) {
      wall_ok = false;
    }
    std::fprintf(stderr,
                 "%-12s winner=%-7s %5.2fs (fastest solo %5.2fs%s)\n",
                 targets[i].name().c_str(),
                 win != nullptr ? win->backend.c_str() : "-",
                 races[i].seconds, min_solo_wall[i],
                 within ? "" : ", over bound");
  }

  // Every backend justifies itself: a race win somewhere, or sound (typed
  // solved/timeout, oracle-clean) results everywhere it lost.
  bool every_backend_sound = true;
  for (const std::string& name : bench_backends()) {
    if (wins[name] == 0 && !sound[name]) {
      every_backend_sound = false;
      std::fprintf(stderr,
                   "FAIL: backend %s never won and reported failures\n",
                   name.c_str());
    }
  }

  std::string json;
  char line[512];
  const auto emit = [&](const char* fmt, auto... a) {
    std::snprintf(line, sizeof line, fmt, a...);
    json += line;
  };
  json += janus::bench::bench_json_header("portfolio", args.seed);
  emit("  \"targets\": %zu,\n", targets.size());
  emit("  \"budget_seconds\": %.1f,\n", budget_s);
  emit("  \"hardware_threads\": %u,\n", hw);
  emit("  \"wall_bound_enforced\": %s,\n", enforce_wall ? "true" : "false");
  emit("  \"all_verified\": %s,\n", all_verified ? "true" : "false");
  emit("  \"jobs_identical\": %s,\n", jobs_identical ? "true" : "false");
  emit("  \"every_backend_sound\": %s,\n",
       every_backend_sound ? "true" : "false");
  emit("  \"wins\": {");
  for (std::size_t b = 0; b < bench_backends().size(); ++b) {
    emit("%s\"%s\": %d", b > 0 ? ", " : "", bench_backends()[b].c_str(),
         wins[bench_backends()[b]]);
  }
  emit("},\n  \"instances\": [\n");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    emit("    {\"name\": \"%s\", \"inputs\": %d,\n",
         targets[i].name().c_str(), inputs[i]);
    for (const std::string& name : bench_backends()) {
      const solo_run& run = solo[i].at(name);
      const backend_result& r = run.result;
      emit("     \"%s\": {\"status\": \"%s\", \"cost\": %d, \"unit\": \"%s\", "
           "\"optimal\": %s, \"lb\": %d, \"wall_seconds\": %.3f, "
           "\"jobs4_cost\": %d, \"verified\": %s},\n",
           name.c_str(), status_json(r), r.cost(),
           r.realized != nullptr ? r.realized->cost_unit() : "",
           r.optimal ? "true" : "false", r.lower_bound, r.seconds,
           run.jobs4_cost, run.verified ? "true" : "false");
    }
    const backend_result* win = races[i].winning();
    emit("     \"portfolio\": {\"winner\": \"%s\", \"cost\": %d, "
         "\"unit\": \"%s\", \"wall_seconds\": %.3f, "
         "\"min_solo_wall_seconds\": %.3f}}%s\n",
         win != nullptr ? win->backend.c_str() : "-",
         win != nullptr ? win->cost() : 0,
         win != nullptr ? win->realized->cost_unit() : "",
         races[i].seconds, min_solo_wall[i],
         i + 1 < targets.size() ? "," : "");
  }
  emit("  ]\n}\n");

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_portfolio: cannot write %s\n", json_path);
    return 1;
  }

  const bool ok = all_verified && jobs_identical && every_backend_sound &&
                  wall_ok && !any_failed;
  std::fprintf(stderr, "bench_portfolio: %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
