#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <deque>

#include <sys/resource.h>

namespace perfbench {

void outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(why);
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, q * static_cast<double>(values.size()) - 1e-9));
  return values[std::min(values.size() - 1, rank)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- tracer -------------------------------------------------------------------

int tracer::begin(std::string name, int parent) {
  if (!enabled_) {
    return -1;
  }
  static thread_local int thread_slot = -1;
  const double now = clock_.seconds();
  janus::util::lock_guard lock(mutex_);
  if (thread_slot < 0) {
    static int next_slot = 0;
    thread_slot = next_slot++;
  }
  spans_.push_back({std::move(name), now, -1.0, parent, thread_slot, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void tracer::end(int id) {
  if (id < 0) {
    return;
  }
  const double now = clock_.seconds();
  janus::util::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void tracer::attr(int id, const std::string& key, double value) {
  if (id < 0) {
    return;
  }
  janus::util::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].attrs.emplace_back(key, value);
}

double tracer::total_seconds(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations(name)) {
    total += d;
  }
  return total;
}

std::vector<double> tracer::durations(std::string_view name) const {
  janus::util::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const span& s : spans_) {
    if (s.name == name && s.end >= s.start) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

double tracer::attr_sum(std::string_view name, std::string_view key) const {
  janus::util::lock_guard lock(mutex_);
  double total = 0.0;
  for (const span& s : spans_) {
    if (s.name != name) {
      continue;
    }
    for (const auto& [k, v] : s.attrs) {
      if (k == key) {
        total += v;
      }
    }
  }
  return total;
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  janus::util::lock_guard lock(mutex_);
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const span& s = spans_[id];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d",
                 id == 0 ? "" : ",\n", s.name.c_str(), s.thread, s.start * 1e6,
                 std::max(0.0, s.end - s.start) * 1e6, id, s.parent);
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---- independent lattice evaluator -------------------------------------------

bool lattice_conducts(const janus::lattice::lattice_mapping& m,
                      std::uint64_t minterm) {
  using kind = janus::lattice::cell_assign::kind;
  const int rows = m.grid().rows;
  const int cols = m.grid().cols;
  const std::vector<janus::lattice::cell_assign>& cells = m.cells();
  std::vector<char> on(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool bit = ((minterm >> cells[i].var) & 1U) != 0;
    switch (cells[i].k) {
      case kind::constant_zero: on[i] = 0; break;
      case kind::constant_one: on[i] = 1; break;
      case kind::positive: on[i] = bit ? 1 : 0; break;
      case kind::negative: on[i] = bit ? 0 : 1; break;
    }
  }
  // Flood fill from every switched-on cell of the top row.
  std::vector<char> seen(cells.size(), 0);
  std::deque<int> frontier;
  for (int c = 0; c < cols; ++c) {
    if (on[static_cast<std::size_t>(c)] != 0) {
      seen[static_cast<std::size_t>(c)] = 1;
      frontier.push_back(c);
    }
  }
  while (!frontier.empty()) {
    const int cell = frontier.front();
    frontier.pop_front();
    const int r = cell / cols;
    const int c = cell % cols;
    if (r == rows - 1) {
      return true;
    }
    const int steps[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    for (const auto& step : steps) {
      const int nr = r + step[0];
      const int nc = c + step[1];
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) {
        continue;
      }
      const auto next = static_cast<std::size_t>(nr * cols + nc);
      if (on[next] != 0 && seen[next] == 0) {
        seen[next] = 1;
        frontier.push_back(static_cast<int>(next));
      }
    }
  }
  return false;
}

std::string check_realization(const janus::lattice::lattice_mapping& m,
                              const janus::bf::truth_table& f,
                              int lower_bound) {
  if (m.num_target_vars() != f.num_vars() ||
      m.cells().size() != static_cast<std::size_t>(m.grid().size())) {
    return "lattice shape does not match the target";
  }
  if (m.size() < lower_bound) {
    return "lattice of " + std::to_string(m.size()) +
           " switches is below the reported lower bound " +
           std::to_string(lower_bound);
  }
  const std::uint64_t minterms = std::uint64_t{1} << f.num_vars();
  for (std::uint64_t x = 0; x < minterms; ++x) {
    if (lattice_conducts(m, x) != f.get(x)) {
      return "lattice disagrees with the target on minterm " +
             std::to_string(x);
    }
  }
  return "";
}

}  // namespace perfbench
