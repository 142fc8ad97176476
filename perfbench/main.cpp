// janus_perfbench: the repo benchmark (perfbench/README.md).
//
//   janus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//
// Prints a human-readable summary on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the per-layer
// metrics the workload exercises; perfbench/run.py checks both against
// BENCHMARK.json. Exits 1 when any correctness check failed, 2 on a usage
// error.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>

#include "util/str.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ladder_seq|ladder_par|service_mixed "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

/// The seed as a whole number of up to 64 bits; run.py folds any integer the
/// caller gives into that range.
std::optional<std::uint64_t> parse_seed(const std::string& token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

perfbench::outcome run(const perfbench::run_options& options) {
  if (options.workload == "ladder_seq") {
    return perfbench::run_ladder(options, 1);
  }
  if (options.workload == "ladder_par") {
    return perfbench::run_ladder(options, 4);
  }
  return perfbench::run_service(options);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return usage(argv[0]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  const std::string& workload = args["workload"];
  const auto seed = parse_seed(args["seed"]);
  const auto seconds = janus::parse_count(args["seconds"], 1, 600);
  const std::string& trace = args["trace"];
  if (argc % 2 == 0 || !seed || !seconds || (trace != "0" && trace != "1") ||
      (workload != "ladder_seq" && workload != "ladder_par" &&
       workload != "service_mixed")) {
    return usage(argv[0]);
  }
  perfbench::run_options options;
  options.workload = workload;
  options.seed = *seed;
  options.seconds = static_cast<double>(*seconds);
  options.trace = trace == "1";
  options.trace_path = args.count("trace-out") != 0
                           ? args["trace-out"]
                           : "perfbench-" + workload + ".trace.json";

  std::fprintf(stderr, "janus_perfbench: %s seed %llu, %d s%s\n",
               workload.c_str(), static_cast<unsigned long long>(*seed),
               *seconds,
               options.trace ? ", traced" : "");
  perfbench::outcome out;
  try {
    out = run(options);
  } catch (const std::exception& e) {
    out.fail(std::string("uncaught exception: ") + e.what());
  }
  const double fail_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  if (options.trace) {
    out.add("fail_frac", fail_frac, "ratio");
  }

  bool finite = true;
  std::string metrics;
  for (const perfbench::metric& m : out.metrics) {
    std::fprintf(stderr, "  %-28s %.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& why : out.failures) {
    std::fprintf(stderr, "  FAIL: %s\n", why.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu (fail_frac %.6g)\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed), fail_frac);
  const bool ok = out.correct() && out.attempted > 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return ok ? 0 : 1;
}
