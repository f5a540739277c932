// cetad_session — writes beside reads.  One closed-loop client speaks the
// wire protocol in-process to ServiceCore::handle over a fleet of WATERS
// sessions, interleaving `mutate` edits with `disparity` (top_k) and
// `latency` queries in the mix of the repository's recorded service
// traffic (bench/perf_service.cpp).  Every edit stays inside the graph's
// admissible region — WCET within [BCET, WCET₀], offsets within [0, T),
// FIFO depth 1..3 on existing edges — so none is refused.  The request
// stream is drawn from the seed in set-up; each round replays it.
#include <sstream>

#include "common/rng.hpp"
#include "engine/analysis_engine.hpp"
#include "graph/paths.hpp"
#include "graph/serialize.hpp"
#include "obs/json_writer.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ceta::AnalysisEngine;
using ceta::Duration;
using ceta::TaskGraph;
using ceta::TaskId;
using ceta::service::JsonValue;

constexpr std::size_t kSessions = 1024;
constexpr std::size_t kRequestsPerRound = 8192;
/// As in the `disparity` request documented in service/service.hpp.
constexpr std::size_t kTopK = 4;

/// Request classes in the proportions of bench/perf_service.cpp's traffic
/// (55 % disparity, 15 % latency, 15 % mutate, 5 % graph dumps, 10 %
/// subscribe churn), renormalised over the three classes sent here:
/// a draw in [0, 85) below 55 is a disparity query, below 70 a latency
/// query, and a mutate otherwise.  As there, a disparity query asks for
/// the sink and a mutate carries one edit.
constexpr std::int64_t kDisparityBelow = 55, kLatencyBelow = 70,
                       kMixTotal = 85;

struct Edit {
  enum class Kind { kWcet, kOffset, kBuffer } kind;
  TaskId a = 0, b = 0;  // task, or edge (a, b)
  Duration bcet, wcet, offset;
  int depth = 1;
};

struct Request {
  enum class Kind { kMutate, kDisparity, kLatency } kind;
  std::size_t session = 0;
  std::vector<Edit> edits;
  TaskId sink = 0;
  ceta::Path chain;
  std::string payload;
};

std::string session_name(std::size_t i) {
  std::string name = "s";
  name += std::to_string(i);
  return name;
}

std::string encode(const Request& r, std::uint64_t id) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"session\":\"" << session_name(r.session)
     << "\",";
  switch (r.kind) {
    case Request::Kind::kMutate:
      os << "\"op\":\"mutate\",\"edits\":[";
      for (std::size_t i = 0; i < r.edits.size(); ++i) {
        const Edit& e = r.edits[i];
        os << (i == 0 ? "" : ",");
        if (e.kind == Edit::Kind::kWcet) {
          os << "{\"kind\":\"set_wcet_range\",\"task\":" << e.a
             << ",\"bcet_ns\":" << e.bcet.count()
             << ",\"wcet_ns\":" << e.wcet.count() << "}";
        } else if (e.kind == Edit::Kind::kOffset) {
          os << "{\"kind\":\"set_offset\",\"task\":" << e.a
             << ",\"offset_ns\":" << e.offset.count() << "}";
        } else {
          os << "{\"kind\":\"set_buffer\",\"from\":" << e.a << ",\"to\":" << e.b
             << ",\"buffer_size\":" << e.depth << "}";
        }
      }
      os << "]}";
      break;
    case Request::Kind::kDisparity:
      os << "\"op\":\"disparity\",\"sink\":" << r.sink
         << ",\"options\":{\"method\":\"fork_join\",\"keep_pairs\":"
            "\"top_k\",\"top_k\":"
         << kTopK << "}}";
      break;
    case Request::Kind::kLatency:
      os << "\"op\":\"latency\",\"chain\":[";
      for (std::size_t i = 0; i < r.chain.size(); ++i) {
        os << (i == 0 ? "" : ",") << r.chain[i];
      }
      os << "]}";
      break;
  }
  return os.str();
}

ceta::DisparityOptions top_k_options() {
  ceta::DisparityOptions opt;
  opt.keep_pairs = ceta::KeepPairs::kTopK;
  opt.top_k = kTopK;
  return opt;
}

/// One edit, of a kind drawn uniformly: WCET, offset or FIFO depth.
Edit draw_edit(const TaskGraph& g, ceta::Rng& rng) {
  Edit e;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      TaskId t = 0;
      do {
        t = static_cast<TaskId>(pick(g.num_tasks()));
      } while (g.is_source(t));
      const ceta::Task& task = g.task(t);
      e.kind = Edit::Kind::kWcet;
      e.a = t;
      e.bcet = task.bcet;
      e.wcet = rng.uniform_duration(task.bcet, task.wcet);
      break;
    }
    case 1: {
      e.kind = Edit::Kind::kOffset;
      e.a = static_cast<TaskId>(pick(g.num_tasks()));
      e.offset = rng.uniform_duration(Duration::zero(),
                                      g.task(e.a).period - Duration::ns(1));
      break;
    }
    default: {
      const ceta::Edge& edge = g.edges()[pick(g.num_edges())];
      e.kind = Edit::Kind::kBuffer;
      e.a = edge.from;
      e.b = edge.to;
      e.depth = static_cast<int>(rng.uniform_int(1, 3));
      break;
    }
  }
  return e;
}

/// The seeded request stream of one round.
std::vector<Request> draw_requests(const std::vector<TaskGraph>& graphs,
                                   std::uint64_t seed) {
  ceta::Rng rng(seed ^ 0xce7adULL);
  std::vector<std::vector<ceta::Path>> chains(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    chains[i] = ceta::enumerate_source_chains(graphs[i],
                                              graphs[i].sinks().front());
  }
  std::vector<Request> out(kRequestsPerRound);
  for (std::size_t k = 0; k < out.size(); ++k) {
    Request& r = out[k];
    r.session = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(graphs.size()) - 1));
    const TaskGraph& g = graphs[r.session];
    const std::int64_t dice = rng.uniform_int(0, kMixTotal - 1);
    if (dice < kDisparityBelow) {
      r.kind = Request::Kind::kDisparity;
      r.sink = g.sinks().front();
    } else if (dice < kLatencyBelow) {
      r.kind = Request::Kind::kLatency;
      const auto& c = chains[r.session];
      r.chain = c[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.size()) - 1))];
    } else {
      r.kind = Request::Kind::kMutate;
      r.edits.push_back(draw_edit(g, rng));
    }
    r.payload = encode(r, k);
  }
  return out;
}

/// Replay one request on a twin engine through the public API.
void replay(AnalysisEngine& e, const Request& r) {
  switch (r.kind) {
    case Request::Kind::kMutate: {
      AnalysisEngine::Transaction txn(e);
      for (const Edit& x : r.edits) {
        if (x.kind == Edit::Kind::kWcet) {
          txn.set_wcet_range(x.a, x.bcet, x.wcet);
        } else if (x.kind == Edit::Kind::kOffset) {
          txn.set_offset(x.a, x.offset);
        } else {
          txn.set_buffer(x.a, x.b, x.depth);
        }
      }
      txn.commit();
      break;
    }
    case Request::Kind::kDisparity:
      (void)e.disparity(r.sink, top_k_options());
      break;
    case Request::Kind::kLatency:
      (void)e.latency(r.chain);
      break;
  }
}

// --- checks ----------------------------------------------------------------

std::vector<std::string> check_reply(const JsonValue& reply,
                                     std::uint64_t id) {
  std::vector<std::string> bad;
  const JsonValue* ok = reply.find("ok");
  const JsonValue* rid = reply.find("id");
  if (ok == nullptr || !ok->is_bool() || !ok->boolean || rid == nullptr ||
      !rid->is_number() || rid->number != static_cast<double>(id)) {
    bad.push_back("reply_ok: request " + std::to_string(id) + " not ok");
  }
  return bad;
}

std::vector<std::string> check_epoch(std::uint64_t before, std::uint64_t got) {
  std::vector<std::string> bad;
  if (got != before + 1) {
    bad.push_back("epoch: commit moved epoch " + std::to_string(before) +
                  " -> " + std::to_string(got));
  }
  return bad;
}

std::vector<std::string> check_final(std::size_t session, double served_ns,
                                     Duration fresh) {
  std::vector<std::string> bad;
  if (served_ns != static_cast<double>(fresh.count())) {
    bad.push_back("final_fresh: session " + std::to_string(session) +
                  " serves " + std::to_string(served_ns) +
                  " ns, a fresh engine on its graph dump " +
                  std::to_string(fresh.count()));
  }
  return bad;
}

JsonValue call(ceta::service::ServiceCore& core, const std::string& payload) {
  return ceta::service::parse_json(core.handle(1, payload).reply);
}

/// The session engines' own counters, read through the `metrics` op and
/// normalised per commit.
void add_engine_counters(ceta::service::ServiceCore& core,
                         std::size_t sessions, std::uint64_t commits,
                         Outcome& out) {
  std::uint64_t refreshed = 0, dirty_reports = 0, hits = 0, lookups = 0,
                bound_hits = 0, bound_lookups = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const JsonValue m = call(core, "{\"id\":4,\"op\":\"metrics\",\"session\":\"" +
                                       session_name(i) + "\"}");
    const JsonValue& c = m.at("result").at("metrics").at("counters");
    const auto n = [&](const char* key) {
      const JsonValue* v = c.find(key);
      return v == nullptr ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(v->number);
    };
    refreshed += n("engine.rta.refreshed_tasks");
    dirty_reports += n("engine.mutate.dirty.reports");
    hits += n("engine.reports.hits");
    lookups += n("engine.reports.hits") + n("engine.reports.misses");
    bound_hits += n("engine.chain_bounds.hits");
    bound_lookups +=
        n("engine.chain_bounds.hits") + n("engine.chain_bounds.misses");
  }
  const double per_commit = commits == 0 ? 1.0 : static_cast<double>(commits);
  out.add("engine.rta.refreshed_tasks",
          static_cast<double>(refreshed) / per_commit, "tasks/commit");
  out.add("engine.mutate.dirty.reports",
          static_cast<double>(dirty_reports) / per_commit, "reports/commit");
  out.add("engine.reports.hit_ratio", hit_ratio(hits, lookups), "ratio");
  out.add("engine.chain_bounds.hit_ratio", hit_ratio(bound_hits, bound_lookups),
          "ratio");
}

}  // namespace

Outcome run_cetad_session(const RunConfig& cfg, Tracer& tracer) {
  const std::vector<TaskGraph> graphs = waters_graphs(kSessions, cfg.seed);
  ceta::service::ServiceConfig scfg;
  scfg.engine_threads = 1;
  ceta::service::ServiceCore core(scfg);
  Outcome out;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    std::ostringstream os;
    os << "{\"id\":0,\"op\":\"create_session\",\"name\":\"" << session_name(i)
       << "\",\"graph\":\"" << ceta::obs::JsonWriter::escape(ceta::to_text(graphs[i]))
       << "\"}";
    const std::string payload = os.str();
    std::string reply;
    {
      Tracer::Scope s(tracer, "service.create_session");
      reply = core.handle(1, payload).reply;
    }
    for (std::string& f : check_reply(ceta::service::parse_json(reply), 0)) {
      out.fail(std::move(f));
    }
  }
  const std::vector<Request> requests = draw_requests(graphs, cfg.seed);
  const double setup_s = seconds_since(cfg.process_start);

  // Twin engines for the traced replay (the engine's share of each op).
  std::vector<std::unique_ptr<AnalysisEngine>> twins;
  if (tracer.enabled()) {
    for (const TaskGraph& g : graphs) {
      twins.push_back(std::make_unique<AnalysisEngine>(g, single_threaded()));
    }
  }

  std::vector<std::uint64_t> epoch(graphs.size(), 0);
  std::uint64_t commits = 0, reply_bytes = 0;
  OpTimes t = run_rounds(cfg.seconds, [&](OpTimes& times) {
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Request& r = requests[k];
      static constexpr const char* kSpan[] = {
          "service.mutate", "service.disparity", "service.latency"};
      const Clock::time_point t0 = Clock::now();
      std::string reply;
      {
        Tracer::Scope op(tracer, "op");
        Tracer::Scope s(tracer, kSpan[static_cast<int>(r.kind)]);
        reply = core.handle(1, r.payload).reply;
      }
      times.latencies.record(seconds_since(t0));
      if (tracer.enabled()) {
        Tracer::Scope s(tracer, "engine.replay");
        replay(*twins[r.session], r);
      }
      reply_bytes += reply.size();
      const JsonValue doc = ceta::service::parse_json(reply);
      for (std::string& f : check_reply(doc, k)) out.fail(std::move(f));
      if (r.kind == Request::Kind::kMutate && doc.find("result") != nullptr) {
        const auto got =
            static_cast<std::uint64_t>(doc.at("result").at("epoch").number);
        for (std::string& f : check_epoch(epoch[r.session], got)) {
          out.fail(std::move(f));
        }
        epoch[r.session] = got;
        ++commits;
      }
    }
  });
  out.attempted = t.latencies.count();
  if (tracer.enabled()) add_engine_counters(core, graphs.size(), commits, out);

  // Final state: every session's served disparity equals a fresh engine
  // built from the session's own graph dump.
  Duration last_fresh;
  double last_served = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::string name = session_name(i);
    const JsonValue dump = call(
        core, "{\"id\":1,\"op\":\"graph\",\"session\":\"" + name + "\"}");
    const TaskGraph g =
        ceta::graph_from_text(dump.at("result").at("text").string);
    const TaskId sink = g.sinks().front();
    const JsonValue served =
        call(core, "{\"id\":2,\"op\":\"disparity\",\"session\":\"" + name +
                       "\",\"sink\":" + std::to_string(sink) + "}");
    const AnalysisEngine fresh(g, single_threaded());
    last_fresh = fresh.disparity(sink).worst_case;
    last_served = served.at("result").at("worst_case_ns").number;
    for (std::string& f : check_final(i, last_served, last_fresh)) {
      out.fail(std::move(f));
    }
  }

  // Liveness: an error reply, an epoch one off, a value one ns off.
  JsonValue refused = call(core, "{\"id\":3,\"op\":\"disparity\",\"session\":"
                                 "\"no-such-session\",\"sink\":0}");
  expect_caught(out, "reply_ok", check_reply(refused, 3));
  expect_caught(out, "epoch", check_epoch(epoch[0], epoch[0] + 2));
  expect_caught(out, "final_fresh",
                check_final(0, last_served + 1.0, last_fresh));

  add_end_to_end(out, setup_s, t);
  if (tracer.enabled()) {
    add_trace_overhead(out, t);
    add_layer(out, tracer, "service.mutate", "service.mutate_s", t);
    add_layer(out, tracer, "service.disparity", "service.disparity_s", t);
    add_layer(out, tracer, "service.latency", "service.latency_s", t);
    add_layer(out, tracer, "engine.replay", "engine.replay_s", t);
    const double ops = static_cast<double>(t.latencies.count());
    const double handle_s = tracer.self_seconds("service.mutate") +
                            tracer.self_seconds("service.disparity") +
                            tracer.self_seconds("service.latency");
    out.add("service.overhead_s",
            (handle_s - tracer.self_seconds("engine.replay")) / ops, "s/op");
    out.add("service.reply_bytes", static_cast<double>(reply_bytes) / ops,
            "B/op");
    out.add("service.create_session_s",
            tracer.self_seconds("service.create_session"), "s");
    add_missing_layers(out);
  }
  return out;
}

}  // namespace perfbench
