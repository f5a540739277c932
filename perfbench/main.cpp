// perfbench — end-to-end benchmark of the ceta library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (see README.md), checks the program's outputs, and
// prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the recorded spans are written to
// .bench_build/trace-<workload>-<seed>.json.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

bool is_end_to_end(const std::string& name) {
  return name == "setup_s" || name == "ops_per_s" || name == "op_p50_ms" ||
         name == "peak_rss_mb";
}

void print_result(const perfbench::Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const perfbench::Metric& m : out.metrics) {
    if (is_end_to_end(m.name) == trace) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::cerr << "usage: perfbench --workload <waters_sweep|ladder_10k|"
               "cetad_session|montecarlo_sim> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.process_start = perfbench::Clock::now();
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.contains("--workload")) return usage();
  try {
    cfg.seed = std::stoull(args.contains("--seed") ? args["--seed"] : "1");
    cfg.seconds = std::stod(args.contains("--seconds") ? args["--seconds"]
                                                       : "10");
    cfg.trace = args.contains("--trace") && args["--trace"] == "1";
  } catch (const std::exception&) {
    return usage();
  }

  const std::string& name = args["--workload"];
  perfbench::Tracer tracer(cfg.trace);
  perfbench::Outcome out;
  try {
    if (name == "waters_sweep") {
      out = perfbench::run_waters_sweep(cfg, tracer);
    } else if (name == "ladder_10k") {
      out = perfbench::run_ladder_10k(cfg, tracer);
    } else if (name == "cetad_session") {
      out = perfbench::run_cetad_session(cfg, tracer);
    } else if (name == "montecarlo_sim") {
      out = perfbench::run_montecarlo_sim(cfg, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << name << " aborted: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& f : out.failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }
  if (out.dropped_failures > 0) {
    std::cerr << "... and " << out.dropped_failures << " more failures\n";
  }
  if (cfg.trace) {
    tracer.write_chrome_trace(".bench_build/trace-" + name + "-" +
                              std::to_string(cfg.seed) + ".json");
  }
  print_result(out, cfg.trace);
  return 0;
}
