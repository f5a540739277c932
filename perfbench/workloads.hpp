// The four workloads.  Each builds its inputs from cfg.seed, runs whole
// rounds of its op for cfg.seconds, checks the program's outputs against
// independent computations, and shows that every check rejects a result
// perturbed by one nanosecond or one job (README.md lists them).
#pragma once

#include "harness.hpp"

namespace perfbench {

Outcome run_waters_sweep(const RunConfig& cfg, Tracer& tracer);
Outcome run_ladder_10k(const RunConfig& cfg, Tracer& tracer);
Outcome run_cetad_session(const RunConfig& cfg, Tracer& tracer);
Outcome run_montecarlo_sim(const RunConfig& cfg, Tracer& tracer);

/// Every per-layer metric name, so each traced run reports all of them
/// (0 for a layer the workload does not call).
void add_missing_layers(Outcome& out);

}  // namespace perfbench
