// Shared machinery of the end-to-end benchmark: the timed loop, the
// benchmark's own span recorder, metric records and the WATERS instance
// generator that three of the four workloads draw from.
//
// Every layer is timed from outside, around calls into the ceta public
// API; nothing inside the library is instrumented by this benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "graph/task_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Every engine the benchmark builds runs on the calling thread: thread
/// counts are set here, never taken from CETA_THREADS or the core count.
ceta::EngineOptions single_threaded();

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the outcome of its checks, the
/// op count and every metric it measured (end-to-end and per-layer; main
/// prints the set the trace flag selects).
struct Outcome {
  std::vector<std::string> failures;  ///< empty = every check passed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Failure messages beyond the first kKeptFailures are only counted.
  static constexpr std::size_t kKeptFailures = 100;
  std::uint64_t dropped_failures = 0;

  void fail(std::string what) {
    if (failures.size() < kKeptFailures) {
      failures.push_back(std::move(what));
    } else {
      ++dropped_failures;
    }
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Process start (main entry): set-up time is measured from here.
  Clock::time_point process_start;
};

/// In-memory span recorder around public calls.  A Scope on a disabled
/// tracer costs one branch.  Self time of a span is its duration minus
/// the duration of its direct children; totals are kept per span name.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_ = 0;
  };

  /// Summed self time of every span named `name`, in seconds.
  double self_seconds(const std::string& name) const;
  /// Chrome trace-event JSON of the recorded spans (up to the cap).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    std::int64_t child_ns = 0;
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t depth;
  };
  static constexpr std::size_t kMaxRecords = 200'000;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::vector<std::pair<const char*, std::int64_t>> self_ns_;
};

/// Op latencies of the timed phase, in seconds, in a fixed footprint.
/// The buffer is allocated and touched before the timed phase, so the
/// benchmark's own memory does not grow with the number of ops a run
/// completes and `peak_rss_mb` stays the program's.  Up to kCapacity ops
/// every latency is kept; past it the buffer holds a uniform reservoir
/// sample, chosen by a hash of the op index.
class Latencies {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;

  Latencies();
  void record(double seconds);
  /// Ops recorded, including those the reservoir did not keep.
  std::uint64_t count() const { return count_; }
  /// Median of the kept latencies; reorders them in place, copies none.
  double median();

 private:
  std::vector<double> kept_;
  std::uint64_t count_ = 0;
};

/// The timed phase of one run.
struct OpTimes {
  Latencies latencies;
  double elapsed_s = 0.0;
  std::uint64_t rounds = 0;
};

/// Run whole rounds until `seconds` have elapsed (at least one round).
/// `round(times)` runs one round and records one latency per op.
OpTimes run_rounds(double seconds, const std::function<void(OpTimes&)>& round);

/// hits / lookups, 0 when nothing was looked up.
double hit_ratio(std::uint64_t hits, std::uint64_t lookups);
double peak_rss_mb();

/// The four end-to-end metrics every workload reports.
void add_end_to_end(Outcome& out, double setup_s, OpTimes& t);

/// Traced runs also report the traced op median, so the tracing overhead
/// is the ratio of this to the untraced op_p50_ms.
void add_trace_overhead(Outcome& out, OpTimes& t);

/// Per-layer metric: the span's self time per op, in s/op.
void add_layer(Outcome& out, const Tracer& tracer, const std::string& span,
               const std::string& metric, const OpTimes& t);

/// A check is live when `failures`, its verdict on a result perturbed
/// past the checked property, includes a failure tagged `tag`.
void expect_caught(Outcome& out, const std::string& tag,
                   const std::vector<std::string>& failures);

/// `count` WATERS-parameterised instances as in the paper's §V set-up
/// (`Fig6abConfig` of the Fig. 6(a)/(b) harness): seeded G(n,m) and funnel
/// graphs, alternating, with n drawn from its task counts (5..35) and its
/// ECU count, each schedulable, with between 2 and its path cap (20,000)
/// source chains to its single sink.
std::vector<ceta::TaskGraph> waters_graphs(std::size_t count,
                                           std::uint64_t seed);

}  // namespace perfbench
