#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/rng.hpp"
#include "experiments/fig6ab.hpp"
#include "graph/generator.hpp"
#include "graph/paths.hpp"
#include "sched/npfp_rta.hpp"
#include "waters/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ceta::EngineOptions single_threaded() {
  ceta::EngineOptions opt;
  opt.num_threads = 1;
  return opt;
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t) {
  if (!t_.enabled_) return;
  index_ = t_.stack_.size();
  t_.stack_.push_back({name, Clock::now(), 0});
}

Tracer::Scope::~Scope() {
  if (!t_.enabled_) return;
  const Clock::time_point end = Clock::now();
  const Open open = t_.stack_[index_];
  t_.stack_.pop_back();
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - open.start)
          .count();
  if (!t_.stack_.empty()) t_.stack_.back().child_ns += dur;
  auto it = std::find_if(t_.self_ns_.begin(), t_.self_ns_.end(),
                         [&](const auto& e) {
                           return std::strcmp(e.first, open.name) == 0;
                         });
  if (it == t_.self_ns_.end()) {
    t_.self_ns_.emplace_back(open.name, 0);
    it = std::prev(t_.self_ns_.end());
  }
  it->second += dur - open.child_ns;
  if (t_.records_.size() < kMaxRecords) {
    t_.records_.push_back(
        {open.name,
         std::chrono::duration_cast<std::chrono::nanoseconds>(open.start -
                                                              t_.origin_)
             .count(),
         dur, static_cast<std::uint32_t>(index_)});
  }
}

double Tracer::self_seconds(const std::string& name) const {
  for (const auto& [n, ns] : self_ns_) {
    if (name == n) return static_cast<double>(ns) * 1e-9;
  }
  return 0.0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(r.dur_ns) * 1e-3
       << ",\"args\":{\"depth\":" << r.depth << "}}";
  }
  os << "\n]}\n";
}

Latencies::Latencies() : kept_(kCapacity, 0.0) {}

void Latencies::record(double seconds) {
  if (count_ < kCapacity) {
    kept_[count_] = seconds;
  } else {
    // Reservoir sampling (Algorithm R) with a SplitMix64 hash of the op
    // index in place of a random draw, so the sample is reproducible.
    std::uint64_t z = count_ + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t slot = z % (count_ + 1);
    if (slot < kCapacity) kept_[slot] = seconds;
  }
  ++count_;
}

double Latencies::median() {
  const auto n = static_cast<std::ptrdiff_t>(
      std::min<std::uint64_t>(count_, kCapacity));
  if (n == 0) return 0.0;
  const auto first = kept_.begin();
  const std::ptrdiff_t mid = n / 2;
  std::nth_element(first, first + mid, first + n);
  const double hi = first[mid];
  if (n % 2 == 1) return hi;
  return 0.5 * (*std::max_element(first, first + mid) + hi);
}

OpTimes run_rounds(double seconds,
                   const std::function<void(OpTimes&)>& round) {
  OpTimes t;
  const Clock::time_point t0 = Clock::now();
  do {
    round(t);
    ++t.rounds;
  } while (seconds_since(t0) < seconds);
  t.elapsed_s = seconds_since(t0);
  return t;
}

double hit_ratio(std::uint64_t hits, std::uint64_t lookups) {
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void add_end_to_end(Outcome& out, double setup_s, OpTimes& t) {
  out.add("setup_s", setup_s, "s");
  out.add("ops_per_s", static_cast<double>(t.latencies.count()) / t.elapsed_s,
          "op/s");
  out.add("op_p50_ms", t.latencies.median() * 1e3, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_trace_overhead(Outcome& out, OpTimes& t) {
  out.add("trace.op_p50_ms", t.latencies.median() * 1e3, "ms");
}

void add_layer(Outcome& out, const Tracer& tracer, const std::string& span,
               const std::string& metric, const OpTimes& t) {
  out.add(metric,
          tracer.self_seconds(span) / static_cast<double>(t.latencies.count()),
          "s/op");
}

void add_missing_layers(Outcome& out) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"trace.op_p50_ms", "ms"},
      {"sched.rta_s", "s/op"},
      {"graph.chains_s", "s/op"},
      {"chain.bounds_s", "s/op"},
      {"disparity.sdiff_s", "s/op"},
      {"disparity.pdiff_s", "s/op"},
      {"disparity.buffer_design_s", "s/op"},
      {"disparity.chain_pairs", "pairs/op"},
      {"engine.chain_bounds.hit_ratio", "ratio"},
      {"disparity.dagdp_s", "s/op"},
      {"graph.cone_tasks", "tasks/op"},
      {"graph.build_s", "s"},
      {"service.mutate_s", "s/op"},
      {"service.disparity_s", "s/op"},
      {"service.latency_s", "s/op"},
      {"engine.replay_s", "s/op"},
      {"service.overhead_s", "s/op"},
      {"service.reply_bytes", "B/op"},
      {"engine.rta.refreshed_tasks", "tasks/commit"},
      {"engine.mutate.dirty.reports", "reports/commit"},
      {"engine.reports.hit_ratio", "ratio"},
      {"service.create_session_s", "s"},
      {"sim.run_s", "s/op"},
      {"sim.jobs_per_s", "job/s"},
      {"sim.events_per_job", "event/job"},
      {"disparity.bound_s", "s"},
  };
  for (const auto& [name, unit] : kLayers) {
    const bool present =
        std::any_of(out.metrics.begin(), out.metrics.end(),
                    [&](const Metric& m) { return m.name == name; });
    if (!present) out.add(name, 0.0, unit);
  }
}

void expect_caught(Outcome& out, const std::string& tag,
                   const std::vector<std::string>& failures) {
  const bool caught =
      std::any_of(failures.begin(), failures.end(), [&](const std::string& f) {
        return f.rfind(tag + ":", 0) == 0;
      });
  out.expect(caught, "liveness: check '" + tag +
                         "' accepted a perturbed result");
}

std::vector<ceta::TaskGraph> waters_graphs(std::size_t count,
                                           std::uint64_t seed) {
  const ceta::Fig6abConfig fig6;
  const auto last = static_cast<std::int64_t>(fig6.task_counts.size()) - 1;
  ceta::Rng rng(seed);
  std::vector<ceta::TaskGraph> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::size_t n =
        fig6.task_counts[static_cast<std::size_t>(rng.uniform_int(0, last))];
    ceta::TaskGraph g;
    if (out.size() % 2 == 0) {
      ceta::GnmDagOptions opt;
      opt.num_tasks = n;
      g = ceta::gnm_random_dag(opt, rng);
    } else {
      ceta::FunnelDagOptions opt;
      opt.num_tasks = n;
      g = ceta::funnel_random_dag(opt, rng);
    }
    ceta::WatersAssignOptions wopt;
    wopt.num_ecus = fig6.num_ecus;
    ceta::assign_waters_parameters(g, wopt, rng);
    const std::size_t chains = ceta::count_source_chains(g, g.sinks().front());
    if (chains < 2 || chains > fig6.path_cap) continue;
    if (!ceta::analyze_response_times(g).all_schedulable) continue;
    g.validate();
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace perfbench
