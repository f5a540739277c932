// montecarlo_sim — the simulator layer (calendar queue, channels,
// provenance), which no other workload reaches.  Each op is one
// single-threaded run_monte_carlo fleet over one seeded WATERS graph with
// random offsets, cross-checked against the analyser's S-diff bound of
// the sink, which set-up computes.
#include "common/rng.hpp"
#include "engine/analysis_engine.hpp"
#include "sched/priority.hpp"
#include "sim/montecarlo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ceta::Duration;
using ceta::TaskGraph;
using ceta::sim::MonteCarloResult;

constexpr std::size_t kGraphs = 1024;
constexpr std::uint64_t kReplications = 8;
constexpr Duration kHorizon = Duration::ms(500);

/// Jobs released at t < horizon: ⌈(horizon − offset)/T⌉ per task.
std::uint64_t expected_jobs(const TaskGraph& g) {
  std::uint64_t jobs = 0;
  for (ceta::TaskId id = 0; id < g.num_tasks(); ++id) {
    const ceta::Task& t = g.task(id);
    if (t.offset >= kHorizon) continue;
    const std::int64_t span = (kHorizon - t.offset).count();
    const std::int64_t period = t.period.count();
    jobs += static_cast<std::uint64_t>((span + period - 1) / period);
  }
  return jobs * kReplications;
}

std::vector<std::string> check(const MonteCarloResult& r, Duration bound,
                               std::uint64_t jobs) {
  std::vector<std::string> bad;
  if (!r.all_within_bounds || r.tasks.size() != 1 ||
      r.tasks[0].worst_sample > bound) {
    bad.push_back("within_bounds: a disparity sample exceeds the bound " +
                  std::to_string(bound.count()));
  }
  if (r.jobs_finished != jobs) {
    bad.push_back("jobs_finished: " + std::to_string(r.jobs_finished) +
                  " != " + std::to_string(jobs));
  }
  return bad;
}

}  // namespace

Outcome run_montecarlo_sim(const RunConfig& cfg, Tracer& tracer) {
  std::vector<TaskGraph> graphs = waters_graphs(kGraphs, cfg.seed);
  ceta::Rng offsets(cfg.seed ^ 0x0ff5e75ULL);
  std::vector<Duration> bounds;
  for (TaskGraph& g : graphs) {
    ceta::randomize_offsets(g, offsets);
    Tracer::Scope s(tracer, "disparity.bound");
    const ceta::AnalysisEngine engine(g, single_threaded());
    bounds.push_back(engine.disparity(g.sinks().front()).worst_case);
  }
  const double setup_s = seconds_since(cfg.process_start);

  std::vector<ceta::sim::MonteCarloOptions> opts(graphs.size());
  std::vector<std::uint64_t> jobs(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    opts[i].sim.duration = kHorizon;
    opts[i].first_seed = cfg.seed * 1000 + i;
    opts[i].replications = kReplications;
    opts[i].num_threads = 1;
    opts[i].observed = {graphs[i].sinks().front()};
    opts[i].bounds = {bounds[i]};
    jobs[i] = expected_jobs(graphs[i]);
  }

  Outcome out;
  std::vector<MonteCarloResult> first(graphs.size());
  std::uint64_t events = 0, jobs_done = 0;
  OpTimes t = run_rounds(cfg.seconds, [&](OpTimes& times) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      MonteCarloResult r;
      {
        Tracer::Scope op(tracer, "op");
        Tracer::Scope s(tracer, "sim.run");
        r = ceta::sim::run_monte_carlo(graphs[i], opts[i]);
      }
      times.latencies.record(seconds_since(t0));
      events += r.events;
      jobs_done += r.jobs_finished;
      for (std::string& f : check(r, bounds[i], jobs[i])) {
        out.fail("graph " + std::to_string(i) + ": " + f);
      }
      if (times.rounds == 0) first[i] = std::move(r);
    }
  });
  out.attempted = t.latencies.count();

  // Liveness: one job more, or a sample one nanosecond above the bound.
  MonteCarloResult p = first[0];
  p.jobs_finished += 1;
  expect_caught(out, "jobs_finished", check(p, bounds[0], jobs[0]));
  p = first[0];
  p.tasks[0].worst_sample = bounds[0] + Duration::ns(1);
  expect_caught(out, "within_bounds", check(p, bounds[0], jobs[0]));

  add_end_to_end(out, setup_s, t);
  if (tracer.enabled()) {
    add_trace_overhead(out, t);
    const double run_s = tracer.self_seconds("sim.run");
    out.add("sim.run_s", run_s / static_cast<double>(t.latencies.count()),
            "s/op");
    out.add("sim.jobs_per_s", static_cast<double>(jobs_done) / run_s, "job/s");
    out.add("sim.events_per_job",
            static_cast<double>(events) / static_cast<double>(jobs_done),
            "event/job");
    out.add("disparity.bound_s", tracer.self_seconds("disparity.bound"), "s");
    add_missing_layers(out);
  }
  return out;
}

}  // namespace perfbench
