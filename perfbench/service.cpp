// service_mixed: an in-process synthesis_service (2 workers) under 8
// closed-loop clients. The seeded stream interleaves first sightings of new
// NP classes (cache writes, cold synthesis) with repeats (cache reads), plus
// malformed lines, zero-deadline requests and requests routed to the esop
// and chain backends. Every response is checked afterwards against direct
// runs: synthesize_batch at jobs=1 for lattice requests, make_backend for
// routed ones.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "backend/backend.hpp"
#include "cache/solution_cache.hpp"
#include "fuzz/generators.hpp"
#include "service/json_value.hpp"
#include "service/service.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using janus::lm::target_spec;
using janus::service::json_value;

constexpr int kWorkers = 2;
/// Closed-loop clients. More than the workers, so the fair queue rarely runs
/// dry: with 4, throughput followed how fast the VM woke idle threads, and
/// runs of the same code swung by half.
constexpr int kClients = 8;
constexpr int kSetupRepeats = 3;  // setup_s is their median
/// --seconds sizes the stream: this many requests per second asked for
/// (about what 2 workers answer on a 4-vCPU VM). A fixed amount of work
/// per run keeps every run's inputs, and so its misses and its memory, a
/// function of the seed alone; rps is the stream over its wall time.
constexpr double kRequestsPerSecond = 16000.0;
/// First sightings in a stream, spread evenly over it after the opening
/// kRepeatLag + 1 (each a cache miss and a cold synthesis). The pool holds
/// exactly these functions, each the only member of its NP class in the
/// pool, so a cache answer is always the answer for that very function.
constexpr std::size_t kNewFunctions = 160;
/// switches_total sums the verified sizes of this many first functions.
constexpr std::size_t kCountedFunctions = 100;
constexpr double kPlaShare = 0.15;  ///< PLA entries in the pool
// Request mix.
constexpr double kMalformedShare = 0.05;
constexpr double kDeadShare = 0.05;
constexpr double kEsopShare = 0.03;
constexpr double kChainShare = 0.01;
/// Repeats pick among the functions introduced at least this many first
/// sightings ago. The cold synthesis of a 4-input function takes up to ~3 s,
/// and a repeat that arrives while its first sighting is still in flight
/// is a second cold synthesis on the other worker; leaving such collisions
/// to timing made whole seconds of the run stall or not, run by run.
constexpr std::size_t kRepeatLag = 32;
/// Lines the traced run replays through the cache-path layers.
constexpr std::size_t kReplayLines = 4000;

janus::synth::janus_options base_options() {
  janus::synth::janus_options base;
  base.time_limit_s = 30.0;
  base.lm.sat_time_limit_s = 10.0;
  return base;
}

// ---- the seeded stream ---------------------------------------------------------

struct entry {
  std::string body;  ///< request fields after "id": the function itself
  std::string pla;   ///< PLA text ("" for table entries)
  std::string bits;  ///< truth table ("" for PLA entries)
  int vars = 0;
  std::vector<target_spec> targets;  ///< as parse_request builds them
};

enum class kind : unsigned char { lattice, malformed, dead, esop, chain };

struct request {
  std::uint64_t index = 0;
  std::string id;
  std::string line;
  kind k = kind::lattice;
  std::size_t entry = 0;
};

std::string class_key(const janus::cache::solution_cache& canon,
                      const janus::bf::truth_table& f) {
  return std::to_string(f.num_vars()) + ":" +
         canon.canonicalize(f).table.to_binary_string();
}

std::vector<entry> build_pool(std::uint64_t seed) {
  janus::rng r = janus::rng(seed).fork(1);
  const janus::cache::solution_cache canon;
  const janus::service::protocol_limits limits;
  std::set<std::string> classes;
  std::vector<entry> pool;
  for (int attempt = 0; pool.size() < kNewFunctions && attempt < 200000;
       ++attempt) {
    entry e;
    if (r.next_bool(kPlaShare)) {
      e.pla = janus::fuzz::random_pla_text(r, /*max_inputs=*/4,
                                           /*max_outputs=*/3);
      e.body = "\"pla\":\"" + janus::util::json_escape(e.pla) + "\"";
    } else {
      const janus::bf::truth_table f = janus::fuzz::random_truth_table(r, 2, 4);
      e.bits = f.to_binary_string();
      e.body = "\"n\":" + std::to_string(f.num_vars()) + ",\"table\":\"" +
               e.bits + "\"";
    }
    const auto parsed = janus::service::parse_request(
        "{\"v\":1,\"op\":\"synth\"," + e.body + "}", limits);
    if (!parsed.req.has_value()) {
      continue;
    }
    e.targets = parsed.req->targets;
    std::vector<std::string> keys;
    bool fresh = true;
    for (const target_spec& t : e.targets) {
      if (t.is_constant()) {
        continue;
      }
      keys.push_back(class_key(canon, t.function()));
      fresh = fresh && classes.count(keys.back()) == 0 &&
              std::count(keys.begin(), keys.end(), keys.back()) == 1;
    }
    if (!fresh || keys.empty()) {
      continue;
    }
    classes.insert(keys.begin(), keys.end());
    e.vars = e.targets.front().num_vars();
    pool.push_back(std::move(e));
  }
  return pool;
}

std::string synth_line(const std::string& id, const entry& e,
                       const std::string& extra) {
  return "{\"v\":1,\"op\":\"synth\",\"id\":\"" + id + "\"," + e.body +
         extra + "}";
}

/// The request sequence: request k depends only on the seed and k, never on
/// which client sends it or when. Thread-safe.
class stream {
 public:
  stream(std::uint64_t seed, const std::vector<entry>& pool,
         std::uint64_t length)
      : rng_(janus::rng(seed).fork(2)), pool_(pool), length_(length) {}

  /// The next request; nullopt once the stream is exhausted.
  std::optional<request> next() JANUS_EXCLUDES(mutex_) {
    janus::util::lock_guard lock(mutex_);
    if (count_ == length_) {
      return std::nullopt;
    }
    request q;
    q.index = count_++;
    q.id = "r" + std::to_string(q.index);
    const double u = rng_.next_double();
    const auto pick = [&](const std::vector<std::size_t>& from) {
      return from[rng_.next_below(from.size())];
    };
    if (u < kMalformedShare) {
      static const char* kMalformed[3] = {
          "{\"v\":1,\"op\":\"synth\",\"id\":\"m\"",
          "{\"v\":1,\"op\":\"synth\",\"n\":3,\"table\":\"01\"}",
          "not a request",
      };
      q.k = kind::malformed;
      q.line = kMalformed[rng_.next_below(3)];
      return q;
    }
    if (!introduced_.empty() && u < kMalformedShare + kDeadShare) {
      q.k = kind::dead;
      q.entry = pick(introduced_);
      q.line = line(q, ",\"deadline_ms\":0");
      return q;
    }
    if (!tables_.empty() && u < kMalformedShare + kDeadShare + kEsopShare) {
      q.k = kind::esop;
      q.entry = pick(tables_);
      q.line = line(q, ",\"backend\":\"esop\"");
      return q;
    }
    if (!small_tables_.empty() &&
        u < kMalformedShare + kDeadShare + kEsopShare + kChainShare) {
      q.k = kind::chain;
      q.entry = pick(small_tables_);
      q.line = line(q, ",\"backend\":\"chain\"");
      return q;
    }
    q.k = kind::lattice;
    // The stream opens with kRepeatLag + 1 cold functions, so that repeats
    // have settled functions to choose from; the rest come in evenly.
    const std::size_t due =
        kRepeatLag + 1 +
        static_cast<std::size_t>((kNewFunctions - kRepeatLag - 1) * q.index /
                                 length_);
    if (introduced_.size() < std::min(due, pool_.size())) {
      q.entry = introduced_.size();
      introduced_.push_back(q.entry);
      const entry& e = pool_[q.entry];
      if (!e.bits.empty()) {
        tables_.push_back(q.entry);
        if (e.vars <= 3) {
          small_tables_.push_back(q.entry);
        }
      }
    } else {
      q.entry = introduced_[rng_.next_below(introduced_.size() - kRepeatLag)];
    }
    q.line = line(q, "");
    return q;
  }

  [[nodiscard]] std::size_t introduced() const JANUS_EXCLUDES(mutex_) {
    janus::util::lock_guard lock(mutex_);
    return introduced_.size();
  }

 private:
  std::string line(const request& q, const std::string& extra) const {
    return synth_line(q.id, pool_[q.entry], extra);
  }

  mutable janus::util::mutex mutex_;
  janus::rng rng_ JANUS_GUARDED_BY(mutex_);
  const std::vector<entry>& pool_;
  const std::uint64_t length_;
  std::uint64_t count_ JANUS_GUARDED_BY(mutex_) = 0;
  std::vector<std::size_t> introduced_ JANUS_GUARDED_BY(mutex_);
  std::vector<std::size_t> tables_ JANUS_GUARDED_BY(mutex_);
  std::vector<std::size_t> small_tables_ JANUS_GUARDED_BY(mutex_);
};

// ---- one closed-loop phase -------------------------------------------------------

enum class status : unsigned char { ok, timeout, bad_request, other };

/// One response, classified.
struct answer {
  status st = status::other;
  bool hit = false;        ///< lattice request answered entirely from the cache
  bool miss = false;       ///< lattice request that synthesized an output
  bool routed_ok = false;  ///< routed request answered by the named backend
  double server_ms = 0.0;  ///< the response's own "ms" field
  std::vector<int> costs;  ///< switches (lattice) or backend cost, per output
};

answer classify(const request& q, const std::string& response,
                const std::vector<entry>& pool) {
  answer a;
  const auto parsed = janus::service::json_parse(response);
  const json_value* doc = parsed.value ? &*parsed.value : nullptr;
  const auto str = [](const json_value* obj, const char* key) {
    const json_value* v = obj != nullptr ? obj->find(key) : nullptr;
    return v != nullptr && v->is_string() ? v->string : std::string();
  };
  const std::string st = str(doc, "status");
  a.st = st == "ok"                                           ? status::ok
         : st == "timeout"                                    ? status::timeout
         : st == "error" && str(doc, "error") == "bad_request" ? status::bad_request
                                                               : status::other;
  if (const json_value* ms = doc != nullptr ? doc->find("ms") : nullptr;
      ms != nullptr && ms->is_number()) {
    a.server_ms = ms->number;
  }
  const json_value* outputs = doc != nullptr ? doc->find("outputs") : nullptr;
  if (a.st != status::ok || outputs == nullptr || !outputs->is_array()) {
    return a;
  }
  const bool routed = q.k == kind::esop || q.k == kind::chain;
  const std::string name = q.k == kind::esop ? "esop" : "chain";
  const auto& targets = pool[q.entry].targets;
  a.routed_ok = routed;
  for (std::size_t o = 0; o < outputs->items.size(); ++o) {
    const json_value& out = outputs->items[o];
    const json_value* cost = out.find(routed ? "cost" : "switches");
    a.costs.push_back(cost != nullptr && cost->is_number()
                          ? static_cast<int>(cost->number)
                          : -1);
    a.routed_ok = a.routed_ok && str(&out, "backend") == name;
    const json_value* cached = out.find("from_cache");
    const bool from_cache =
        cached != nullptr && cached->is_bool() && cached->boolean;
    if (!routed && o < targets.size() && !targets[o].is_constant() &&
        !from_cache) {
      a.miss = true;
    }
  }
  a.hit = q.k == kind::lattice && !a.miss;
  return a;
}

/// What a phase keeps of its responses. Aggregates, not one record per
/// request, so that the benchmark's own memory stays out of peak_rss_mb.
struct tally {
  outcome checks;  ///< attempted/failed of the checks that need no reference
  std::vector<double> hit_ms, miss_ms, server_ms;
  /// Answers seen per lattice entry (cost vector -> requests), and per
  /// routed (entry, backend) (cost -> requests; -1 = malformed answer). The
  /// reference comparison runs on these after the phase.
  std::map<std::size_t, std::map<std::vector<int>, std::uint64_t>> lattice;
  std::map<std::pair<std::size_t, kind>, std::map<int, std::uint64_t>> routed;
  /// (request index, entry) of the first lattice requests, for the replay.
  std::vector<std::pair<std::uint64_t, std::size_t>> replay;

  void record(const request& q, const answer& a, double latency_ms) {
    ++checks.attempted;
    switch (q.k) {
      case kind::malformed:
        if (a.st != status::bad_request) {
          checks.fail(q.id + ": malformed line not answered bad_request");
        }
        return;
      case kind::dead:
        if (a.st != status::timeout) {
          checks.fail(q.id + ": zero deadline not answered timeout");
        }
        return;
      case kind::esop:
      case kind::chain:
        ++routed[{q.entry, q.k}][a.routed_ok && a.costs.size() == 1
                                     ? a.costs.front()
                                     : -1];
        return;
      case kind::lattice:
        if (a.st != status::ok) {
          checks.fail(q.id + ": lattice request not answered ok");
          return;
        }
        ++lattice[q.entry][a.costs];
        (a.hit ? hit_ms : miss_ms).push_back(latency_ms);
        server_ms.push_back(a.server_ms);
        if (replay.size() < kReplayLines) {
          replay.emplace_back(q.index, q.entry);
        }
        return;
    }
  }

  void merge(tally&& other) {
    checks.attempted += other.checks.attempted;
    for (const std::string& why : other.checks.failures) {
      checks.fail(why);
    }
    checks.failed += other.checks.failed - other.checks.failures.size();
    hit_ms.insert(hit_ms.end(), other.hit_ms.begin(), other.hit_ms.end());
    miss_ms.insert(miss_ms.end(), other.miss_ms.begin(), other.miss_ms.end());
    server_ms.insert(server_ms.end(), other.server_ms.begin(),
                     other.server_ms.end());
    for (auto& [e, seen] : other.lattice) {
      for (auto& [costs, n] : seen) {
        lattice[e][costs] += n;
      }
    }
    for (auto& [key, seen] : other.routed) {
      for (auto& [cost, n] : seen) {
        routed[key][cost] += n;
      }
    }
    replay.insert(replay.end(), other.replay.begin(), other.replay.end());
  }
};

struct phase {
  tally t;
  double wall = 0.0;
  double cpu = 0.0;
  double rps = 0.0;  ///< requests answered per second of the phase
  std::size_t introduced = 0;
  std::vector<double> queue_wait_ms;
  janus::service::service_stats stats;
  double stats_p99_ms = 0.0;
  bool gave_up = false;
};

/// Send one line and block for its response (nullopt after 120 s). The
/// callback owns its share of the state: a response that arrives after the
/// wait gave up must not touch this frame.
std::optional<std::string> roundtrip(janus::service::synthesis_service& svc,
                                     std::uint64_t client,
                                     const std::string& line) {
  struct slot {
    janus::util::mutex m;
    janus::util::cond_var cv;
    std::optional<std::string> response JANUS_GUARDED_BY(m);
  };
  auto state = std::make_shared<slot>();
  svc.submit_line(client, line, [state](std::string r) {
    janus::util::lock_guard lock(state->m);
    state->response = std::move(r);
    state->cv.notify_all();
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  janus::util::unique_lock lock(state->m);
  while (!state->response.has_value()) {
    if (state->cv.wait_until(lock, give_up) == std::cv_status::timeout) {
      return std::nullopt;
    }
  }
  return state->response;
}

janus::service::service_options service_config() {
  janus::service::service_options options;
  options.workers = kWorkers;
  options.queue_capacity = 64;
  options.default_deadline_s = 30.0;
  options.base = base_options();
  return options;
}

phase run_phase(std::uint64_t seed, const std::vector<entry>& pool,
                std::uint64_t length, tracer& tr) {
  phase out;
  janus::service::service_options options = service_config();
  janus::util::mutex wait_mutex;
  std::map<std::string, janus::stopwatch> submitted;
  if (tr.enabled()) {
    // Queue wait: submit to the worker's dequeue hook.
    options.on_job_start = [&](std::uint64_t, const std::string& id) {
      janus::util::lock_guard lock(wait_mutex);
      const auto it = submitted.find(id);
      if (it != submitted.end()) {
        out.queue_wait_ms.push_back(it->second.seconds() * 1000.0);
      }
    };
  }
  janus::service::synthesis_service svc(options);
  stream requests(seed, pool, length);

  janus::util::mutex tally_mutex;
  std::atomic<bool> gave_up{false};
  const double cpu0 = process_cpu_seconds();
  janus::stopwatch clock;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      tally local;
      while (!gave_up.load()) {
        const std::optional<request> next = requests.next();
        if (!next.has_value()) {
          break;
        }
        const request& q = *next;
        if (tr.enabled()) {
          janus::util::lock_guard lock(wait_mutex);
          submitted.emplace(q.id, janus::stopwatch());
        }
        scoped_span span(tr, "synthesis_service::submit_line");
        janus::stopwatch rt;
        const auto response =
            roundtrip(svc, static_cast<std::uint64_t>(c) + 1, q.line);
        const double ms = rt.seconds() * 1000.0;
        if (!response.has_value()) {
          gave_up.store(true);
          break;
        }
        const answer a = classify(q, *response, pool);
        local.record(q, a, ms);
        span.attr("latency_ms", ms);
        span.attr("hit", a.hit ? 1 : 0);
        span.attr("miss", a.miss ? 1 : 0);
      }
      janus::util::lock_guard lock(tally_mutex);
      out.t.merge(std::move(local));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  out.wall = clock.seconds();
  out.cpu = process_cpu_seconds() - cpu0;
  out.gave_up = gave_up.load();
  out.introduced = requests.introduced();
  out.rps = static_cast<double>(out.t.checks.attempted) / out.wall;
  std::sort(out.t.replay.begin(), out.t.replay.end());
  if (out.t.replay.size() > kReplayLines) {
    out.t.replay.resize(kReplayLines);
  }

  // The server's own view: /stats next to the client-side numbers.
  {
    scoped_span span(tr, "synthesis_service::submit_line(stats)");
    const auto response = roundtrip(svc, 100, "{\"v\":1,\"op\":\"stats\"}");
    const auto parsed = janus::service::json_parse(response.value_or(""));
    if (parsed.value.has_value()) {
      const json_value* stats = parsed.value->find("stats");
      const json_value* latency =
          stats != nullptr ? stats->find("latency") : nullptr;
      const json_value* p99 =
          latency != nullptr ? latency->find("p99_ms") : nullptr;
      if (p99 != nullptr && p99->is_number()) {
        out.stats_p99_ms = p99->number;
        span.attr("p99_ms", p99->number);
      }
    }
  }
  out.stats = svc.stats();
  svc.drain(30.0);
  return out;
}

// ---- reference runs and checks ---------------------------------------------------

struct reference {
  std::vector<target_spec> targets;  ///< every output of every entry used
  std::vector<std::size_t> first;    ///< entry -> index of its first target
  janus::synth::batch_result batch;  ///< jobs=1, no store
  std::map<std::pair<std::size_t, kind>, int> backend_cost;
};

reference build_reference(const std::vector<entry>& pool, std::size_t used,
                          const std::vector<const phase*>& phases, tracer& tr,
                          outcome& out) {
  reference ref;
  for (std::size_t e = 0; e < used; ++e) {
    ref.first.push_back(ref.targets.size());
    ref.targets.insert(ref.targets.end(), pool[e].targets.begin(),
                       pool[e].targets.end());
  }
  janus::synth::batch_options batch;
  batch.base = base_options();
  batch.jobs = 1;
  ref.batch = janus::synth::synthesize_batch(ref.targets, batch);
  for (std::size_t i = 0; i < ref.batch.results.size(); ++i) {
    const auto& r = ref.batch.results[i];
    if (!r.solution.has_value() || r.hit_time_limit) {
      out.fail("reference run did not converge on target " + std::to_string(i));
    }
  }
  for (const phase* p : phases) {
    for (const auto& [key, seen] : p->t.routed) {
      if (ref.backend_cost.count(key) != 0) {
        continue;
      }
      const std::string name = key.second == kind::esop ? "esop" : "chain";
      janus::backend::backend_request req;
      req.target = pool[key.first].targets.front();
      req.base = base_options();
      scoped_span span(tr, "make_backend(" + name + ")->run");
      const auto result = janus::backend::make_backend(name)->run(req);
      span.attr("conflicts", static_cast<double>(result.sat.conflicts));
      span.attr("cost", result.cost());
      ref.backend_cost[key] = result.definitive() ? result.cost() : -2;
    }
  }
  return ref;
}

/// The phase's own checks plus every answer against the reference.
void check_phase(const phase& p, const reference& ref, outcome& out) {
  out.attempted += p.t.checks.attempted;
  for (const std::string& why : p.t.checks.failures) {
    out.fail(why);
  }
  out.failed += p.t.checks.failed - p.t.checks.failures.size();
  if (p.gave_up) {
    out.fail("a request got no response within 120 s");
  }
  if (p.t.miss_ms.size() < kCountedFunctions) {
    out.fail("only " + std::to_string(p.t.miss_ms.size()) + " misses (want " +
             std::to_string(kCountedFunctions) + ")");
  }
  for (const auto& [e, seen] : p.t.lattice) {
    std::vector<int> want;
    for (std::size_t i = ref.first[e];
         i < (e + 1 < ref.first.size() ? ref.first[e + 1] : ref.targets.size());
         ++i) {
      want.push_back(ref.batch.results[i].solution_size());
    }
    for (const auto& [costs, n] : seen) {
      if (costs != want) {
        for (std::uint64_t k = 0; k < n; ++k) {
          out.fail("entry " + std::to_string(e) +
                   ": sizes differ from a direct synthesize_batch");
        }
      }
    }
  }
  for (const auto& [key, seen] : p.t.routed) {
    const auto it = ref.backend_cost.find(key);
    for (const auto& [cost, n] : seen) {
      if (it == ref.backend_cost.end() || it->second != cost) {
        for (std::uint64_t k = 0; k < n; ++k) {
          out.fail("entry " + std::to_string(key.first) +
                   ": backend cost differs from a direct make_backend run");
        }
      }
    }
  }
}

/// Cache-path layers replayed over the traced phase's lattice lines against
/// a store holding the reference solutions: protocol parse, function parse,
/// NP canonicalization, lookup (with its oracle re-check) and a separate
/// realizes() of the looked-up mapping.
void replay_cache_path(const phase& p, const std::vector<entry>& pool,
                       const reference& ref, tracer& tr) {
  janus::cache::solution_cache store;
  for (std::size_t i = 0; i < ref.targets.size(); ++i) {
    const auto& r = ref.batch.results[i];
    if (!ref.targets[i].is_constant() && r.solution.has_value()) {
      store.store(ref.targets[i].function(), *r.solution, r.lower_bound);
    }
  }
  scoped_span root(tr, "replay_cache_path");
  for (const auto& [index, e_index] : p.t.replay) {
    const entry& e = pool[e_index];
    trace_warm_request(synth_line("r" + std::to_string(index), e, ""), e.pla,
                       e.bits, e.targets, store, tr, root.id());
  }
}

}  // namespace

outcome run_service(const run_options& options) {
  outcome out;
  std::vector<double> setup_s;
  std::vector<entry> pool;
  for (int k = 0; k < kSetupRepeats; ++k) {
    janus::stopwatch clock;
    pool = build_pool(options.seed);
    janus::service::synthesis_service svc(service_config());
    setup_s.push_back(clock.seconds());
  }
  if (pool.size() < kNewFunctions) {
    out.fail("pool holds only " + std::to_string(pool.size()) + " functions");
    return out;
  }

  tracer off(false);
  tracer tr(options.trace);
  // A traced run splits its time: an untraced phase (the baseline for the
  // tracing overhead and the latency split), then the traced phase.
  const auto length = static_cast<std::uint64_t>(
      kRequestsPerSecond * (options.trace ? options.seconds / 2.0
                                          : options.seconds));
  const phase untraced = run_phase(options.seed, pool, length, off);
  const phase traced =
      options.trace ? run_phase(options.seed, pool, length, tr) : phase{};

  // The service's footprint: measured before the benchmark's own reference
  // runs add theirs.
  const double rss_mb = peak_rss_mb();
  std::vector<const phase*> phases = {&untraced};
  if (options.trace) {
    phases.push_back(&traced);
  }
  const std::size_t used = std::max(untraced.introduced, traced.introduced);
  const reference ref = build_reference(pool, used, phases, tr, out);
  for (const phase* p : phases) {
    check_phase(*p, ref, out);
  }

  const tally& t = untraced.t;
  std::fprintf(stderr,
               "  %llu requests in %.2f s (%.0f/s), "
               "%zu functions introduced; hit p50 %.3f / p99 %.3f ms (n=%zu), "
               "miss p50 %.3f / p90 %.3f ms (n=%zu)\n",
               static_cast<unsigned long long>(t.checks.attempted),
               untraced.wall, untraced.rps, untraced.introduced,
               percentile(t.hit_ms, 0.5), percentile(t.hit_ms, 0.99),
               t.hit_ms.size(), percentile(t.miss_ms, 0.5),
               percentile(t.miss_ms, 0.9), t.miss_ms.size());

  if (!options.trace) {
    const std::size_t end = used > kCountedFunctions
                                ? ref.first[kCountedFunctions]
                                : ref.targets.size();
    int switches = 0;
    for (std::size_t i = 0; i < end; ++i) {
      switches += ref.batch.results[i].solution_size();
    }
    out.add("setup_s", median(setup_s), "s");
    out.add("wall_s", 1000.0 / untraced.rps, "s");
    out.add("rps", untraced.rps, "1/s");
    out.add("switches_total", switches, "count");
    out.add("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  add_synthesis_layers(ref.targets, ref.batch, tr, out);
  replay_cache_path(traced, pool, ref, tr);
  if (!tr.write(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  out.add("exec.cpu_s", traced.cpu, "s");
  out.add("exec.busy_frac", traced.cpu / (traced.wall * kWorkers), "ratio");
  add_warm_path_layers(tr, traced.stats.store, out);
  out.add("service.queue_wait_p50_ms", percentile(traced.queue_wait_ms, 0.5),
          "ms");
  out.add("service.queue_wait_p99_ms", percentile(traced.queue_wait_ms, 0.99),
          "ms");
  out.add("service.server_ms", median(traced.t.server_ms), "ms");
  out.add("service.stats_p99_ms", traced.stats_p99_ms, "ms");
  out.add("service.hit_p50_ms", percentile(t.hit_ms, 0.5), "ms");
  out.add("service.hit_p99_ms", percentile(t.hit_ms, 0.99), "ms");
  out.add("service.hit_samples", static_cast<double>(t.hit_ms.size()), "count");
  out.add("service.miss_p50_ms", percentile(t.miss_ms, 0.5), "ms");
  out.add("service.miss_p90_ms", percentile(t.miss_ms, 0.9), "ms");
  out.add("service.miss_samples", static_cast<double>(t.miss_ms.size()),
          "count");
  out.add("backend.esop_ms",
          median(tr.durations("make_backend(esop)->run")) * 1e3, "ms");
  out.add("backend.chain_ms",
          median(tr.durations("make_backend(chain)->run")) * 1e3, "ms");
  out.add("backend.conflicts",
          tr.attr_sum("make_backend(esop)->run", "conflicts") +
              tr.attr_sum("make_backend(chain)->run", "conflicts"),
          "count");
  out.add("trace.overhead_pct", 100.0 * (untraced.rps - traced.rps) / untraced.rps,
          "%");
  return out;
}

}  // namespace perfbench
