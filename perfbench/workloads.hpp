// The benchmark's workloads (perfbench/README.md says why each exists).
#pragma once

#include <vector>

#include "cache/solution_cache.hpp"
#include "common.hpp"
#include "synth/batch.hpp"

namespace perfbench {

/// ladder_seq (jobs = 1) and ladder_par (jobs = 4): the Table II corpus
/// through synthesize_batch.
outcome run_ladder(const run_options& options, int jobs);

/// Per-layer synthesis metrics (sat.*, lm.*, synth.*) of one batch: its
/// counters and probe records, plus a traced replay of every target's
/// bounds and of each probe it solved.
void add_synthesis_layers(const std::vector<janus::lm::target_spec>& targets,
                          const janus::synth::batch_result& batch, tracer& tr,
                          outcome& out);

/// One repeat request's path below the service, one span per call under
/// `parent`: the protocol parse of `line`, the function parse (`pla` text,
/// else the table `bits`), then for each non-constant target NP
/// canonicalization, lookup in `store` and a separate realizes() of the hit.
void trace_warm_request(const std::string& line, const std::string& pla,
                        const std::string& bits,
                        const std::vector<janus::lm::target_spec>& targets,
                        janus::cache::solution_cache& store, tracer& tr,
                        int parent);

/// service.parse_us, bf.*, cache.* and lattice.verify_us from those spans,
/// with the cache counters of `stats`.
void add_warm_path_layers(const tracer& tr,
                          const janus::cache::cache_stats& stats,
                          outcome& out);

/// service_mixed: an in-process synthesis_service under closed-loop clients.
outcome run_service(const run_options& options);

}  // namespace perfbench
