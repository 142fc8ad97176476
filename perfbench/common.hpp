// Shared pieces of the repo benchmark: run options, the result record each
// run prints, the in-memory span tracer, and the independent lattice
// evaluator the ladder workloads check every realization with.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lattice/mapping.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event file of a traced run
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's last stdout line.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for stderr
  std::vector<metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one failed operation and keep its reason.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return failed == 0; }
};

// ---- measurement helpers ------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double process_cpu_seconds();

// ---- tracing --------------------------------------------------------------------

/// Spans kept in memory and written once at the end of a traced run. Each
/// span records a name, start, end, parent and numeric attributes; a trace
/// viewer derives self times from the parent links. A disabled tracer
/// records nothing (begin() returns -1). Thread-safe.
class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(std::string name, int parent = -1) JANUS_EXCLUDES(mutex_);
  void end(int id) JANUS_EXCLUDES(mutex_);
  void attr(int id, const std::string& key, double value)
      JANUS_EXCLUDES(mutex_);

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_seconds(std::string_view name) const
      JANUS_EXCLUDES(mutex_);
  /// Durations of the spans called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const
      JANUS_EXCLUDES(mutex_);
  /// Sum of attribute `key` over the spans called `name`.
  [[nodiscard]] double attr_sum(std::string_view name,
                                std::string_view key) const
      JANUS_EXCLUDES(mutex_);

  /// Chrome trace-event JSON (complete "X" events, attributes as args).
  bool write(const std::string& path) const JANUS_EXCLUDES(mutex_);

 private:
  struct span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    int thread = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  const bool enabled_;
  janus::stopwatch clock_;
  mutable janus::util::mutex mutex_;
  std::vector<span> spans_ JANUS_GUARDED_BY(mutex_);
};

/// RAII span; a no-op on a disabled tracer.
class scoped_span {
 public:
  scoped_span(tracer& t, std::string name, int parent = -1)
      : tracer_(t), id_(t.begin(std::move(name), parent)) {}
  ~scoped_span() { tracer_.end(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] int id() const { return id_; }
  void attr(const std::string& key, double value) {
    tracer_.attr(id_, key, value);
  }

 private:
  tracer& tracer_;
  int id_;
};

// ---- independent lattice evaluator -------------------------------------------

/// Does `m` conduct for `minterm`: is there a top-to-bottom path of
/// 4-connected cells that are all on? Written from the paper's definition
/// over the raw cell data (row-major cells, each a constant or a literal);
/// it shares no evaluation code with src/lattice.
[[nodiscard]] bool lattice_conducts(const janus::lattice::lattice_mapping& m,
                                    std::uint64_t minterm);

/// Empty when `m` realizes `f` on every minterm and has at least
/// `lower_bound` switches; otherwise the reason.
[[nodiscard]] std::string check_realization(
    const janus::lattice::lattice_mapping& m, const janus::bf::truth_table& f,
    int lower_bound);

}  // namespace perfbench
