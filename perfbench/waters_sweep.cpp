// waters_sweep — the paper's §V traffic.  Each op analyses one WATERS
// graph cold with a fresh single-threaded engine, calling the layers in
// dependency order so each call pays only its own layer: RTA, chain
// enumeration, chain bounds, S-diff of every fusing task, P-diff of the
// sink, and the §IV multi-buffer design of the sink.
#include <algorithm>

#include "common/rng.hpp"
#include "disparity/analyzer.hpp"
#include "disparity/multi_buffer.hpp"
#include "engine/analysis_engine.hpp"
#include "sched/npfp_rta.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ceta::AnalysisEngine;
using ceta::DisparityOptions;
using ceta::DisparityReport;
using ceta::Duration;
using ceta::TaskGraph;
using ceta::TaskId;

constexpr std::size_t kGraphs = 4096;
constexpr double kSampleShare = 1.0 / 64;

DisparityOptions sdiff_options() { return {}; }  // Theorem 2, truncated

DisparityOptions pdiff_options() {
  DisparityOptions opt;
  opt.method = ceta::DisparityMethod::kIndependent;
  return opt;
}

/// Everything one op produces.
struct Analysis {
  std::vector<TaskId> fusing;               // includes the sink
  std::vector<DisparityReport> sdiff;       // parallel to fusing
  DisparityReport pdiff;                    // of the sink
  std::vector<ceta::Path> chains;           // every chain of every fusing task
  std::vector<ceta::BackwardBounds> bounds; // parallel to chains
  ceta::MultiBufferDesign design;
};

Analysis analyse(const TaskGraph& g, Tracer& tracer) {
  AnalysisEngine engine(g, single_threaded());
  const TaskId sink = g.sinks().front();
  Analysis a;
  {
    Tracer::Scope s(tracer, "sched.rta");
    (void)engine.rta();
  }
  {
    Tracer::Scope s(tracer, "graph.chains");
    a.fusing = engine.fusing_tasks();
    for (const TaskId t : a.fusing) {
      const auto& cs = engine.chains(t);
      a.chains.insert(a.chains.end(), cs.begin(), cs.end());
    }
  }
  {
    Tracer::Scope s(tracer, "chain.bounds");
    a.bounds.reserve(a.chains.size());
    for (const ceta::Path& c : a.chains) {
      a.bounds.push_back(engine.chain_bounds(c));
    }
  }
  {
    Tracer::Scope s(tracer, "disparity.sdiff");
    a.sdiff = engine.disparity_all(a.fusing, sdiff_options());
  }
  {
    Tracer::Scope s(tracer, "disparity.pdiff");
    a.pdiff = engine.disparity(sink, pdiff_options());
  }
  {
    Tracer::Scope s(tracer, "disparity.buffer_design");
    a.design = engine.optimize_buffers(sink);
  }
  return a;
}

bool same_report(const DisparityReport& x, const DisparityReport& y) {
  if (x.worst_case != y.worst_case || x.chains != y.chains ||
      x.pairs.size() != y.pairs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.pairs.size(); ++i) {
    if (x.pairs[i].chain_a != y.pairs[i].chain_a ||
        x.pairs[i].chain_b != y.pairs[i].chain_b ||
        x.pairs[i].bound != y.pairs[i].bound) {
      return false;
    }
  }
  return true;
}

std::size_t sink_index(const Analysis& a, TaskId sink) {
  return static_cast<std::size_t>(
      std::find(a.fusing.begin(), a.fusing.end(), sink) - a.fusing.begin());
}

/// The checks every op's result must pass: cheap, so they run on each op.
std::vector<std::string> check_properties(const TaskGraph& g,
                                          const Analysis& a) {
  std::vector<std::string> bad;
  const std::size_t si = sink_index(a, g.sinks().front());
  if (si == a.fusing.size()) {
    bad.push_back("fusing: sink with >= 2 chains not reported as fusing");
    return bad;
  }
  if (a.sdiff[si].worst_case > a.pdiff.worst_case) {
    bad.push_back("sdiff_le_pdiff: S-diff " +
                  std::to_string(a.sdiff[si].worst_case.count()) +
                  " > P-diff " + std::to_string(a.pdiff.worst_case.count()));
  }
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    if (a.bounds[i].bcbt > a.bounds[i].wcbt) {
      bad.push_back("bcbt_le_wcbt: chain " + std::to_string(i));
    }
  }
  if (a.design.optimized_bound > a.design.baseline_bound) {
    bad.push_back("design_improves: optimized above baseline");
  }
  return bad;
}

/// The checks against independent recomputation, run on a seeded sample:
/// the free reference analyzer, and a fresh engine on the graph with the
/// design applied.
std::vector<std::string> check_against_reference(const TaskGraph& g,
                                                 const Analysis& a) {
  std::vector<std::string> bad;
  const TaskId sink = g.sinks().front();
  const ceta::ResponseTimeMap rtm =
      ceta::analyze_response_times(g).response_time;
  for (std::size_t i = 0; i < a.fusing.size(); ++i) {
    if (!same_report(a.sdiff[i], ceta::analyze_time_disparity(
                                     g, a.fusing[i], rtm, sdiff_options()))) {
      bad.push_back("reference: S-diff of task " +
                    std::to_string(a.fusing[i]));
    }
  }
  if (!same_report(a.pdiff, ceta::analyze_time_disparity(g, sink, rtm,
                                                         pdiff_options()))) {
    bad.push_back("reference: P-diff of the sink");
  }
  TaskGraph buffered = g;
  ceta::apply_multi_buffer_design(buffered, a.design);
  const AnalysisEngine fresh(std::move(buffered), single_threaded());
  if (fresh.disparity(sink).worst_case != a.design.optimized_bound) {
    bad.push_back("design_fresh: optimized bound differs from a fresh engine "
                  "on the buffered graph");
  }
  return bad;
}

/// A digest of one analysis, to show every later round reproduces the
/// first one.
std::uint64_t digest(const Analysis& a) {
  std::uint64_t h = 0;
  const auto mix = [&h](Duration d) {
    h = h * 31 + static_cast<std::uint64_t>(d.count());
  };
  mix(a.pdiff.worst_case);
  for (const auto& r : a.sdiff) mix(r.worst_case);
  for (const auto& b : a.bounds) {
    mix(b.wcbt);
    mix(b.bcbt);
  }
  mix(a.design.optimized_bound);
  return h;
}

/// Each check must reject its property moved one nanosecond past its
/// boundary.
void check_liveness(Outcome& out, const TaskGraph& g, const Analysis& a) {
  const std::size_t si = sink_index(a, g.sinks().front());
  if (si == a.fusing.size()) return;  // already reported
  Analysis p = a;
  p.pdiff.worst_case = p.sdiff[si].worst_case - Duration::ns(1);
  expect_caught(out, "sdiff_le_pdiff", check_properties(g, p));
  p = a;
  p.bounds.at(0).bcbt = p.bounds[0].wcbt + Duration::ns(1);
  expect_caught(out, "bcbt_le_wcbt", check_properties(g, p));
  p = a;
  p.design.optimized_bound = p.design.baseline_bound + Duration::ns(1);
  expect_caught(out, "design_improves", check_properties(g, p));
  p = a;
  p.sdiff[si].worst_case += Duration::ns(1);
  expect_caught(out, "reference", check_against_reference(g, p));
  p = a;
  p.design.optimized_bound -= Duration::ns(1);
  expect_caught(out, "design_fresh", check_against_reference(g, p));
}

}  // namespace

Outcome run_waters_sweep(const RunConfig& cfg, Tracer& tracer) {
  const std::vector<TaskGraph> graphs = waters_graphs(kGraphs, cfg.seed);
  const double setup_s = seconds_since(cfg.process_start);

  // The seeded sample whose first-round results are kept for the
  // reference checks; graph 0 is always in it (the liveness checks use it).
  ceta::Rng rng(cfg.seed ^ 0x5eed5eedULL);
  std::vector<bool> sampled(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    sampled[i] = i == 0 || rng.flip(kSampleShare);
  }
  std::vector<Analysis> kept(graphs.size());
  std::vector<std::uint64_t> digests(graphs.size());
  Outcome out;
  std::uint64_t mismatches = 0;
  std::uint64_t pairs = 0;
  OpTimes t = run_rounds(cfg.seconds, [&](OpTimes& times) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      Analysis a;
      {
        Tracer::Scope op(tracer, "op");
        a = analyse(graphs[i], tracer);
      }
      times.latencies.record(seconds_since(t0));
      for (std::string& f : check_properties(graphs[i], a)) {
        out.fail("graph " + std::to_string(i) + ": " + f);
      }
      if (tracer.enabled()) {
        for (const auto& r : a.sdiff) {
          pairs += r.chain_count * (r.chain_count - 1) / 2;
        }
        pairs += a.pdiff.chain_count * (a.pdiff.chain_count - 1) / 2;
      }
      if (times.rounds == 0) {
        digests[i] = digest(a);
        if (sampled[i]) kept[i] = std::move(a);
      } else if (digest(a) != digests[i]) {
        ++mismatches;
      }
    }
  });
  out.attempted = t.latencies.count();
  out.expect(mismatches == 0, "repeat: " + std::to_string(mismatches) +
                                  " ops differ from the first round");
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (!sampled[i]) continue;
    for (std::string& f : check_against_reference(graphs[i], kept[i])) {
      out.fail("graph " + std::to_string(i) + ": " + f);
    }
  }
  check_liveness(out, graphs[0], kept[0]);

  add_end_to_end(out, setup_s, t);
  if (tracer.enabled()) {
    add_trace_overhead(out, t);
    add_layer(out, tracer, "sched.rta", "sched.rta_s", t);
    add_layer(out, tracer, "graph.chains", "graph.chains_s", t);
    add_layer(out, tracer, "chain.bounds", "chain.bounds_s", t);
    add_layer(out, tracer, "disparity.sdiff", "disparity.sdiff_s", t);
    add_layer(out, tracer, "disparity.pdiff", "disparity.pdiff_s", t);
    add_layer(out, tracer, "disparity.buffer_design",
              "disparity.buffer_design_s", t);
    // A descriptor of the inputs, not of the program: the chain pairs the
    // analyses of one op cover, n(n-1)/2 over its reports' chain counts.
    // It turns the disparity layer times into time per pair.
    out.add("disparity.chain_pairs",
            static_cast<double>(pairs) /
                static_cast<double>(t.latencies.count()),
            "pairs/op");
    add_missing_layers(out);
  }
  return out;
}

}  // namespace perfbench
