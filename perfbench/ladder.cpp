// ladder_10k — huge-graph traffic: the 10⁴-task diamond ladder (2³³³³
// source chains to the sink, every task alone on its own ECU).  Each op
// builds one cold single-threaded engine, which answers a fixed set of
// junction cones through the DAG-DP backend (P-diff, worst pair only).
// No chain is ever enumerated; the op is RTA plus DP.
#include <string>

#include "disparity/analyzer.hpp"
#include "engine/analysis_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ceta::AnalysisEngine;
using ceta::DisparityReport;
using ceta::Duration;
using ceta::TaskGraph;
using ceta::TaskId;

constexpr std::size_t kLayers = 3333;  // 1 + 3·3333 = 10⁴ tasks

/// S → `layers` serial diamonds a_i, b_i → j_i; every task has period
/// 10 ms and execution time 1 ms on its own ECU.
TaskGraph ladder(std::size_t layers) {
  TaskGraph g;
  ceta::Task s;
  s.name = "S";
  s.period = Duration::ms(10);
  TaskId prev = g.add_task(s);
  ceta::EcuId next_ecu = 0;
  auto mk = [&](const std::string& name) {
    ceta::Task t;
    t.name = name;
    t.wcet = t.bcet = Duration::ms(1);
    t.period = Duration::ms(10);
    t.ecu = next_ecu++;
    return g.add_task(t);
  };
  for (std::size_t i = 0; i < layers; ++i) {
    const std::string n = std::to_string(i);
    const TaskId a = mk("a" + n);
    const TaskId b = mk("b" + n);
    const TaskId j = mk("j" + n);
    g.add_edge(prev, a);
    g.add_edge(prev, b);
    g.add_edge(a, j);
    g.add_edge(b, j);
    prev = j;
  }
  g.validate();
  return g;
}

TaskId junction(std::size_t k) { return static_cast<TaskId>(3 * k + 3); }

/// The junction indices whose cones every op analyses: eight cones spread
/// over the ladder plus the sink.
std::vector<std::size_t> cone_junctions() {
  std::vector<std::size_t> ks;
  for (std::size_t k = 415; k < kLayers; k += 416) ks.push_back(k);
  ks.push_back(kLayers - 1);
  return ks;
}

ceta::DisparityOptions dp_options() {
  ceta::DisparityOptions opt;
  opt.method = ceta::DisparityMethod::kIndependent;
  opt.truncation = ceta::JointTruncation::kNever;
  opt.keep_pairs = ceta::KeepPairs::kWorstOnly;
  opt.backend = ceta::DisparityBackend::kDagDp;
  return opt;
}

/// S → a_0 → j_0 → … → a_k → j_k.
ceta::Path explicit_path(std::size_t k) {
  ceta::Path p{0};
  for (std::size_t i = 0; i <= k; ++i) {
    p.push_back(static_cast<TaskId>(3 * i + 1));
    p.push_back(junction(i));
  }
  return p;
}

/// Checks each cone's DP result against independent computations:
/// `path_span[i]` is W(π) − B(π) of the explicit source→junction path
/// (through a separate engine's chain_bounds), and on this ladder the
/// worst case is 20 ms per diamond.
std::vector<std::string> check(const std::vector<std::size_t>& ks,
                               const std::vector<DisparityReport>& reports,
                               const std::vector<Duration>& path_span) {
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::string where = " at junction " + std::to_string(ks[i]);
    const DisparityReport& r = reports[i];
    if (!r.exact) bad.push_back("exact: DP result not exact" + where);
    if (r.worst_case != path_span[i]) {
      bad.push_back("explicit_path: DP " + std::to_string(r.worst_case.count()) +
                    " != W-B " + std::to_string(path_span[i].count()) + where);
    }
    const Duration closed =
        Duration::ms(20) * static_cast<std::int64_t>(ks[i] + 1);
    if (r.worst_case != closed) {
      bad.push_back("closed_form: DP " + std::to_string(r.worst_case.count()) +
                    " != 20 ms x (k+1)" + where);
    }
  }
  return bad;
}

/// On a ladder small enough to enumerate (2⁸ chains), the DP must equal
/// the enumerating reference analyzer at every junction.
std::vector<std::string> check_small(
    const std::vector<DisparityReport>& dp,
    const std::vector<DisparityReport>& enumerated) {
  std::vector<std::string> bad;
  for (std::size_t k = 0; k < dp.size(); ++k) {
    if (dp[k].backend != ceta::DisparityBackend::kDagDp ||
        dp[k].worst_case != enumerated[k].worst_case ||
        dp[k].chain_count != enumerated[k].chain_count) {
      bad.push_back("small_enum: DP differs from enumeration at junction " +
                    std::to_string(k));
    }
  }
  return bad;
}

}  // namespace

Outcome run_ladder_10k(const RunConfig& cfg, Tracer& tracer) {
  TaskGraph g;
  {
    Tracer::Scope s(tracer, "graph.build");
    g = ladder(kLayers);
  }
  const double setup_s = seconds_since(cfg.process_start);

  const ceta::EngineOptions eopt = single_threaded();
  const std::vector<std::size_t> ks = cone_junctions();
  std::vector<TaskId> cones;
  std::uint64_t cone_tasks = 0;
  for (const std::size_t k : ks) {
    cones.push_back(junction(k));
    cone_tasks += 3 * (k + 1) + 1;
  }
  const ceta::DisparityOptions opt = dp_options();

  std::vector<DisparityReport> first;
  std::uint64_t mismatches = 0;
  OpTimes t = run_rounds(cfg.seconds, [&](OpTimes& times) {
    const Clock::time_point t0 = Clock::now();
    std::vector<DisparityReport> reports;
    {
      Tracer::Scope op(tracer, "op");
      const AnalysisEngine engine(g, eopt);
      {
        Tracer::Scope s(tracer, "sched.rta");
        (void)engine.rta();
      }
      {
        Tracer::Scope s(tracer, "disparity.dagdp");
        reports = engine.disparity_all(cones, opt);
      }
    }
    times.latencies.record(seconds_since(t0));
    if (times.rounds == 0) {
      first = std::move(reports);
    } else {
      for (std::size_t i = 0; i < reports.size(); ++i) {
        if (reports[i].worst_case != first[i].worst_case) ++mismatches;
      }
    }
  });

  Outcome out;
  out.attempted = t.latencies.count();
  out.expect(mismatches == 0, "repeat: " + std::to_string(mismatches) +
                                  " cone results differ from the first op");

  std::vector<Duration> path_span;
  {
    const AnalysisEngine checker(g, eopt);
    for (const std::size_t k : ks) {
      const ceta::BackwardBounds b = checker.chain_bounds(explicit_path(k));
      path_span.push_back(b.wcbt - b.bcbt);
    }
  }
  for (std::string& f : check(ks, first, path_span)) out.fail(std::move(f));

  const TaskGraph small = ladder(8);
  std::vector<DisparityReport> small_dp, small_enum;
  {
    const AnalysisEngine engine(small, eopt);
    const ceta::ResponseTimeMap rtm =
        ceta::analyze_response_times(small).response_time;
    ceta::DisparityOptions enum_opt = opt;
    enum_opt.backend = ceta::DisparityBackend::kEnumerate;
    for (std::size_t k = 0; k < 8; ++k) {
      small_dp.push_back(engine.disparity(junction(k), opt));
      small_enum.push_back(
          ceta::analyze_time_disparity(small, junction(k), rtm, enum_opt));
    }
  }
  for (std::string& f : check_small(small_dp, small_enum)) out.fail(std::move(f));

  // Liveness: each check rejects a result one nanosecond off.
  std::vector<DisparityReport> p = first;
  p[0].worst_case += Duration::ns(1);
  expect_caught(out, "explicit_path", check(ks, p, path_span));
  expect_caught(out, "closed_form", check(ks, p, path_span));
  p = first;
  p[0].exact = false;
  expect_caught(out, "exact", check(ks, p, path_span));
  p = small_dp;
  p[7].worst_case -= Duration::ns(1);
  expect_caught(out, "small_enum", check_small(p, small_enum));

  add_end_to_end(out, setup_s, t);
  if (tracer.enabled()) {
    add_trace_overhead(out, t);
    add_layer(out, tracer, "sched.rta", "sched.rta_s", t);
    add_layer(out, tracer, "disparity.dagdp", "disparity.dagdp_s", t);
    out.add("graph.cone_tasks", static_cast<double>(cone_tasks), "tasks/op");
    out.add("graph.build_s", tracer.self_seconds("graph.build"), "s");
    add_missing_layers(out);
  }
  return out;
}

}  // namespace perfbench
