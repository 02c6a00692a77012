// serve-eco: a serve::Server with nproc workers and eco = true, driven by
// nproc closed-loop clients (each waits for its terminal answer before it
// sends again). Requests carry mid-size generated circuits (the c7552
// profile spec: 3512 gates, 6144 wires) as inline .bench text. Every circuit
// goes through one request cycle: a cold request, an exact repeat of it
// (answered from the result cache) and a single-gate edit anywhere in the
// circuit (ECO-seeded from the cached base). A round runs the cycle of every
// circuit of a fixed list on a fresh server, the clients taking the next
// cycle as they come free, so every round makes the same requests. The same
// sizing core runs cold, ECO-warm and from a cache hit; runtime cache lookup,
// eco seeding, api warm start and serve queueing are measured only here.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "checker.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "runtime/batch.hpp"
#include "runtime/json.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace lr = lrsizer;
using lr::runtime::Json;

/// c7552-spec generator seeds of the circuits, the same for every run; the
/// edited gate of a circuit is picked by its generator seed. Seed 66 is the
/// named ECO fault (README.md): its edit stops at the 500-iteration cap
/// where its base converged in 170. It goes first, as the longest cycle.
const std::vector<std::uint64_t> kSeeds = {66, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
/// Circuits re-sized in-process by the traced run (the first ones).
constexpr std::size_t kLocalBases = 4;
/// A request with no terminal answer by then is a protocol fault.
constexpr auto kAnswerTimeout = std::chrono::seconds(60);

struct Circuit {
  std::uint64_t seed = 0;
  std::string bench;
  std::string edit_bench;
};

struct Inputs {
  std::vector<Circuit> circuits;
};

Inputs make_inputs() {
  Inputs in;
  for (std::uint64_t seed : kSeeds) {
    const auto netlist =
        lr::netlist::generate_circuit(lr::netlist::spec_for_profile("c7552", seed));
    in.circuits.push_back({seed, lr::netlist::to_bench_string(netlist),
                           lr::netlist::to_bench_string(flip_one_gate(netlist, seed))});
  }
  return in;
}

std::string size_line(const std::string& id, const std::string& bench, std::uint64_t seed,
                      bool trace) {
  Json input = Json::object();
  input.set("bench", bench);
  Json request = Json::object();
  request.set("type", "size");
  request.set("id", id);
  request.set("input", std::move(input));
  request.set("seed", seed);
  request.set("sizes", true);
  if (trace) request.set("trace", true);
  return request.dump();
}

/// The string value under `key` at its first occurrence in `line` ("type"
/// and "id" lead every server response).
std::string string_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":\"";
  const auto at = line.find(tag);
  if (at == std::string::npos) return {};
  const auto begin = at + tag.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// The raw text of the object under `key` at the top level of `line`.
std::string raw_object(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t i = at + tag.size();
  const std::size_t begin = i;
  int depth = 0;
  bool in_string = false;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return line.substr(begin, i + 1 - begin);
    }
  }
  return {};
}

bool is_ok_result(const std::string& line) {
  return line.rfind("{\"type\":\"result\"", 0) == 0 &&
         line.find("\"timeout\":true") == std::string::npos;
}

enum class Kind { kCold, kRepeat, kEdit };
constexpr const char* kKindName[] = {"cold", "repeat", "edit"};

struct Sent {
  Kind kind = Kind::kCold;
  std::size_t circuit = 0;
  bool traced = false;
  double start_s = 0.0;  ///< send time on the span log's clock
  double latency_s = 0.0;
  std::string response;  ///< the terminal line
  std::string fault;     ///< a protocol fault: wrong id, no answer in time
};

/// A client: one sink, one outstanding request at a time.
struct Client {
  lr::serve::Server::ClientId id = 0;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<Clock::time_point, std::string>> lines;
};

/// Send one request and wait for the terminal answer to its id.
void exchange(lr::serve::Server& server, Client& client, const std::string& id,
              const std::string& line, Sent& s, SpanLog* log) {
  const auto t0 = Clock::now();
  if (log != nullptr) s.start_s = log->to_log_time(t0);
  server.handle_line(client.id, line);
  std::unique_lock<std::mutex> lock(client.mutex);
  for (;;) {
    if (!client.cv.wait_until(lock, t0 + kAnswerTimeout,
                              [&] { return !client.lines.empty(); })) {
      s.fault = "no terminal answer to " + id + " within 60 s";
      return;
    }
    auto [when, text] = std::move(client.lines.front());
    client.lines.pop_front();
    if (string_field(text, "id") != id) {
      s.fault = "an answer to '" + string_field(text, "id") + "' while waiting for " + id;
      return;
    }
    const std::string type = string_field(text, "type");
    if (type == "accepted" || type == "progress") continue;
    s.latency_s = std::chrono::duration<double>(when - t0).count();
    s.response = std::move(text);
    return;
  }
}

lr::serve::ServerOptions server_options() {
  lr::serve::ServerOptions options;
  options.jobs = nproc();
  options.eco = true;
  options.version = "perfbench";
  return options;
}

struct RoundResult {
  std::vector<Sent> sent;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string stats;  ///< the stats response after the round
  std::size_t stray = 0;
  bool faulted = false;
};

/// Every circuit's cycle once, on a fresh server. With `traced`, the cold
/// requests of every second circuit (alternating between rounds) carry
/// "trace": true and every request is a span on `log`.
RoundResult run_round(const Inputs& in, int index, bool traced, SpanLog* log) {
  lr::serve::Server server(server_options());
  const int clients = nproc();
  std::vector<std::unique_ptr<Client>> conns;
  for (int c = 0; c < clients; ++c) {
    auto client = std::make_unique<Client>();
    Client* raw = client.get();
    client->id = server.add_client([raw](const std::string& line) {
      const auto now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(raw->mutex);
        raw->lines.emplace_back(now, line);
      }
      raw->cv.notify_one();
    });
    conns.push_back(std::move(client));
  }

  RoundResult out;
  std::mutex mutex;  // guards next and out.sent
  std::size_t next = 0;
  auto client_loop = [&](Client& client) {
    for (;;) {
      std::size_t c = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (next >= in.circuits.size()) return;
        c = next++;
      }
      const Circuit& circuit = in.circuits[c];
      for (Kind kind : {Kind::kCold, Kind::kRepeat, Kind::kEdit}) {
        Sent s;
        s.kind = kind;
        s.circuit = c;
        s.traced = traced && kind == Kind::kCold && (c + static_cast<std::size_t>(index)) % 2 == 1;
        const std::string id = "r" + std::to_string(index) + "-" + std::to_string(c) + "-" +
                               kKindName[static_cast<int>(kind)];
        exchange(server, client, id,
                 size_line(id, kind == Kind::kEdit ? circuit.edit_bench : circuit.bench,
                           circuit.seed, s.traced),
                 s, log);
        const bool faulted = !s.fault.empty();
        {
          std::lock_guard<std::mutex> lock(mutex);
          out.faulted = out.faulted || faulted;
          out.sent.push_back(std::move(s));
        }
        if (faulted) return;
      }
    }
  };

  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (auto& conn : conns) threads.emplace_back(client_loop, std::ref(*conn));
    for (auto& t : threads) t.join();
  }
  out.wall_s = since(start);
  out.cpu_s = cpu_seconds() - cpu0;

  Client& first = *conns.front();
  const std::string stats_id = "stats-" + std::to_string(index);
  Sent stats;
  exchange(server, first, stats_id, R"({"type":"stats","id":")" + stats_id + "\"}", stats,
           nullptr);
  out.stats = stats.fault.empty() ? stats.response : stats.fault;
  server.drain();
  for (const auto& c : conns) {
    server.remove_client(c->id);
    std::lock_guard<std::mutex> lock(c->mutex);
    out.stray += c->lines.size();  // answers beyond one terminal per request
  }
  if (log != nullptr) {
    for (const auto& s : out.sent) {
      log->add(std::string("serve.request.") + kKindName[static_cast<int>(s.kind)],
               static_cast<std::int64_t>(s.circuit), -1, s.start_s, s.start_s + s.latency_s);
    }
  }
  return out;
}

/// Circuit + coupling of one request's input as the server elaborates it:
/// a local session on the same text and seed, stopped after one OGWS
/// iteration (stages 0 and 1 do not depend on the solver options).
struct Reference {
  std::optional<lr::core::FlowResult> flow;
  lr::core::FlowOptions options;
};

Reference reference_of(const std::string& bench, std::uint64_t seed) {
  Reference ref;
  ref.options.elab.seed = seed;
  lr::core::FlowOptions quick = ref.options;
  quick.ogws.max_iterations = 1;
  lr::api::SizingSession session(lr::netlist::parse_bench_string(bench), quick);
  session.set_capture_warm_start(false);
  if (session.run_all().ok() || session.has_result()) ref.flow = session.take_result();
  return ref;
}

/// References of every circuit (index 2c) and its edit (2c + 1), built on
/// nproc threads.
std::vector<Reference> references_of(const Inputs& in) {
  std::vector<Reference> refs(2 * in.circuits.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < nproc(); ++t) {
    workers.emplace_back([&] {
      for (std::size_t k; (k = next++) < refs.size();) {
        const Circuit& c = in.circuits[k / 2];
        refs[k] = reference_of(k % 2 == 0 ? c.bench : c.edit_bench, c.seed);
      }
    });
  }
  for (auto& w : workers) w.join();
  return refs;
}

double number(const Json& j, const char* a, const char* b = nullptr) {
  const Json& v = b ? j.at(a).at(b) : j.at(a);
  return v.is_number() ? v.as_number() : 0.0;
}

/// Judge one round: every request got exactly one terminal answer to its
/// own id; every cold and edit result converged and passes the checker;
/// every repeat is a cache hit whose job object and sizes are
/// byte-identical to those of the cold request it repeats. Returns, per
/// request, whether it succeeded.
std::vector<bool> judge(const Inputs& in, const std::vector<Reference>& refs,
                        const RoundResult& run, int index, Report& report) {
  if (run.stray != 0) {
    report.wrong(std::to_string(run.stray) + " responses arrived after a terminal answer");
  }
  std::map<std::size_t, const Sent*> cold_of;
  for (const auto& s : run.sent) {
    if (s.kind == Kind::kCold) cold_of[s.circuit] = &s;
  }
  std::vector<bool> ok(run.sent.size(), false);
  for (std::size_t i = 0; i < run.sent.size(); ++i) {
    const Sent& s = run.sent[i];
    ++report.attempted;
    const std::string what = std::string(kKindName[static_cast<int>(s.kind)]) +
                             " request, round " + std::to_string(index) + ", circuit seed " +
                             std::to_string(in.circuits[s.circuit].seed);
    if (!s.fault.empty()) {
      report.failed_op(what, s.fault);
      report.wrong(what + ": " + s.fault);
      continue;
    }
    if (!is_ok_result(s.response)) {
      report.failed_op(what, s.response.substr(0, 200));
      continue;
    }
    if (s.kind == Kind::kRepeat) {
      const auto it = cold_of.find(s.circuit);
      const std::string original = it != cold_of.end() ? it->second->response : std::string();
      const std::string job = raw_object(s.response, "job");
      if (s.response.find("\"cache_hit\":true") == std::string::npos ||
          job != raw_object(original, "job") ||
          raw_object(s.response, "sizes") != raw_object(original, "sizes")) {
        report.failed_op(what, "not a cache hit identical to the request it repeats");
        report.wrong(what + ": cache-hit payload is not byte-identical");
      } else if (!Json::parse(job).at("converged").as_bool()) {
        report.failed_op(what, "converged: false");
      } else {
        ok[i] = true;  // the original is checked in its own right
      }
      continue;
    }
    const Json response = Json::parse(s.response);
    const Json& job = response.at("job");
    if (!job.at("converged").as_bool()) {
      report.failed_op(what, "converged: false after " +
                                 std::to_string(static_cast<int>(number(job, "iterations"))) +
                                 " iterations");
      continue;
    }
    const Reference& ref = refs[2 * s.circuit + (s.kind == Kind::kEdit ? 1 : 0)];
    if (!ref.flow) {
      report.wrong(what + ": the reference elaboration failed");
      continue;
    }
    std::vector<double> x(static_cast<std::size_t>(ref.flow->circuit.num_nodes()), 0.0);
    for (const Json& pair : response.at("sizes").as_array()) {
      const auto node = static_cast<std::size_t>(pair.as_array().at(0).as_number());
      if (node < x.size()) x[node] = pair.as_array().at(1).as_number();
    }
    const Claimed claimed{number(job, "area_um2"),         number(job, "final", "delay_s"),
                          number(job, "final", "cap_f"),   number(job, "final", "noise_f"),
                          number(job, "bounds", "delay_s"), number(job, "bounds", "cap_f"),
                          number(job, "bounds", "noise_f")};
    if (const std::string err = check_solution(ref.flow->circuit, ref.flow->coupling, x,
                                               problem_of(ref.options), claimed);
        !err.empty()) {
      report.failed_op(what, err);
      report.wrong(what + ": " + err);
      continue;
    }
    ok[i] = true;
  }
  return ok;
}

/// Latencies of the requests that succeeded, all or of one kind, by round.
struct Latencies {
  PerRound all;
  PerRound by_kind[3];
  std::size_t count = 0;
  void add(const RoundResult& run, const std::vector<bool>& ok) {
    std::vector<double> round;
    std::vector<double> round_kind[3];
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
      if (!ok[i]) continue;
      round.push_back(run.sent[i].latency_s);
      round_kind[static_cast<int>(run.sent[i].kind)].push_back(run.sent[i].latency_s);
    }
    count += round.size();
    all.add(std::move(round));
    for (int k = 0; k < 3; ++k) by_kind[k].add(std::move(round_kind[k]));
  }
};

/// Iterations of every cold and edit answer, by circuit: "cold/edit".
std::string iteration_table(const Inputs& in, const RoundResult& run) {
  std::map<std::size_t, std::string> cold;
  std::map<std::size_t, std::string> edit;
  for (const auto& s : run.sent) {
    if (s.kind == Kind::kRepeat || !is_ok_result(s.response)) continue;
    const Json job = Json::parse(raw_object(s.response, "job"));
    std::string text = std::to_string(static_cast<int>(number(job, "iterations")));
    if (!job.at("converged").as_bool()) text += "!";
    (s.kind == Kind::kCold ? cold : edit)[s.circuit] = text;
  }
  std::string out;
  for (std::size_t c = 0; c < in.circuits.size(); ++c) {
    out += " " + std::to_string(in.circuits[c].seed) + ":" + cold[c] + "/" + edit[c];
  }
  return out;
}

Report untraced(const Args& args) {
  Report report;
  std::vector<double> setups;
  std::optional<Inputs> in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = i == 0 ? args.started : Clock::now();
    in.reset();
    in = make_inputs();
    lr::serve::Server server(server_options());
    setups.push_back(since(t0));
  }

  std::vector<Reference> refs;
  Latencies lat;
  double area = 0.0;
  double busy = 0.0;
  double rss = 0.0;
  std::size_t cold_seeded = 0;
  std::string iterations;
  // One untimed round first, as on table1-batch: a process's first round
  // runs slower than the later ones.
  run_round(*in, -1, false, nullptr);
  int rounds = 0;
  const auto start = Clock::now();
  while (rounds == 0 || since(start) < args.seconds) {
    const RoundResult run = run_round(*in, rounds, false, nullptr);
    busy += run.wall_s;
    if (rounds == 0) {
      rss = peak_rss_mb();
      refs = references_of(*in);
      iterations = iteration_table(*in, run);
    }
    const std::vector<bool> ok = judge(*in, refs, run, rounds, report);
    lat.add(run, ok);
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
      const Sent& s = run.sent[i];
      if (s.kind != Kind::kCold || !ok[i]) continue;
      const Json job = Json::parse(raw_object(s.response, "job"));
      if (rounds == 0) area += number(job, "area_um2");
      if (job.find("eco") != nullptr) ++cold_seeded;
    }
    ++rounds;
    if (run.faulted) break;
  }

  report.add("setup_s", "s", median(setups));
  report.add("job_s", "s", lat.by_kind[static_cast<int>(Kind::kCold)].median());
  report.add("jobs_per_s", "jobs/s", static_cast<double>(lat.count) / busy);
  report.add("request_s_p50", "s", lat.all.quantile(0.5));
  report.add("request_s_p90", "s", lat.all.quantile(0.9));
  report.add("eco_request_s", "s", lat.by_kind[static_cast<int>(Kind::kEdit)].median());
  report.add("repeat_request_s", "s", lat.by_kind[static_cast<int>(Kind::kRepeat)].median());
  report.add("final_area_um2", "um2", area);
  report.add("peak_rss_mb", "MB", rss);
  std::cout << "# set-ups (s):";
  for (double s : setups) std::cout << " " << s;
  std::cout << "\n# serve-eco: " << rounds << " rounds of " << in->circuits.size()
            << " cycles (cold, repeat, edit) from " << nproc() << " closed-loop clients to "
            << nproc() << " workers; cold requests ECO-seeded from another circuit: "
            << cold_seeded << "; iterations cold/edit by circuit seed (! unconverged):"
            << iterations << "\n";
  return report;
}

Report traced(const Args& args) {
  Report report;
  SpanLog log;
  const Inputs in = make_inputs();

  std::vector<Reference> refs;
  std::map<std::string, double> stage_s;
  std::vector<double> iteration_s;
  double traced_jobs = 0.0;
  std::vector<double> server_cold_s;  // the first kLocalBases circuits, as served
  std::vector<double> waits;
  std::vector<double> traced_cold;
  std::vector<double> untraced_cold;
  double reused = 0.0;
  double dirty = 0.0;
  double edit_iterations = 0.0;
  double edits = 0.0;
  double lookups = 0.0;
  double hits = 0.0;
  double cpu = 0.0;
  int rounds = 0;
  const auto start = Clock::now();
  while (rounds == 0 || since(start) < args.seconds) {
    const RoundResult run = run_round(in, rounds, true, &log);
    cpu += run.cpu_s;
    if (rounds == 0) refs = references_of(in);
    const std::vector<bool> ok = judge(in, refs, run, rounds, report);
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
      const Sent& s = run.sent[i];
      if (!ok[i] || s.kind == Kind::kRepeat) continue;  // repeats are cache hits
      const Json response = Json::parse(s.response);
      const Json& job = response.at("job");
      waits.push_back(s.latency_s - number(job, "seconds"));
      if (s.kind == Kind::kCold) {
        (s.traced ? traced_cold : untraced_cold).push_back(s.latency_s);
        if (s.circuit < kLocalBases) server_cold_s.push_back(number(job, "seconds"));
      } else {
        edits += 1.0;
        edit_iterations += number(job, "iterations");
        if (const Json* eco = job.find("eco")) {
          reused += number(*eco, "reused_nodes");
          dirty += number(*eco, "dirty_nodes");
        }
      }
      const Json* trace = response.find("trace");
      if (trace == nullptr) continue;
      traced_jobs += 1.0;
      for (const Json& event : trace->at("traceEvents").as_array()) {
        const std::string& name = event.at("name").as_string();
        const double dur = 1e-6 * event.at("dur").as_number();
        stage_s[name] += dur;
        if (name == "ogws_iteration") iteration_s.push_back(dur);
      }
    }
    if (run.stats.find("\"type\":\"stats\"") != std::string::npos) {
      const Json stats = Json::parse(run.stats);
      hits += number(stats.at("cache"), "hits");
      lookups += number(stats.at("cache"), "hits") + number(stats.at("cache"), "misses");
    } else {
      report.wrong("no stats response: " + run.stats.substr(0, 200));
    }
    ++rounds;
    if (run.faulted) break;
  }
  traced_jobs = std::max(1.0, traced_jobs);
  edits = std::max(1.0, edits);

  // The first circuits again, in-process and alone: solver counts, layer
  // re-invocations, and the base of runtime.job_inflation.
  SolverCounts counts;
  LayerTotals totals;
  std::vector<double> alone_s;
  double cost_initial = 0.0;
  double cost_woss = 0.0;
  for (std::size_t b = 0; b < kLocalBases && b < in.circuits.size(); ++b) {
    lr::runtime::BatchJob job;
    job.name = "circuit" + std::to_string(b);
    job.seed = in.circuits[b].seed;
    job.netlist = lr::netlist::parse_bench_string(in.circuits[b].bench);
    job.options.elab.seed = in.circuits[b].seed;
    lr::runtime::JobControls controls;
    controls.observer = [&counts](const std::string&, const lr::core::OgwsIterate& it) {
      counts.add(it);
    };
    const lr::core::FlowOptions options = job.options;
    const auto outcome = lr::runtime::run_job(std::move(job), controls);
    if (!outcome.ok || !outcome.flow) {
      report.wrong("in-process re-run of circuit " + std::to_string(b) + " failed");
      continue;
    }
    alone_s.push_back(outcome.seconds);
    const auto job_id = -1 - static_cast<std::int64_t>(b);
    measure_stage1(outcome.netlist, *outcome.flow, options, log, job_id, totals);
    measure_kernels(*outcome.flow, options, nullptr, 3, log, job_id, totals);
    cost_initial += outcome.flow->ordering_cost_initial;
    cost_woss += outcome.flow->ordering_cost_woss;
  }
  counts.iteration_s = iteration_s;  // as served, under load

  report.add("api.elaborate_s", "s", stage_s["elaborate"] / traced_jobs);
  report.add("api.stage1_s", "s", stage_s["simulate_and_order"] / traced_jobs);
  report.add("api.stage2_s", "s", (stage_s["derive_bounds"] + stage_s["size"]) / traced_jobs);
  report_layers(totals, counts, 1.0, report);
  report.add("layout.ordering_cost_ratio", "ratio", cost_woss / cost_initial);
  report.add("runtime.cpu_s", "s", cpu);
  report.add("runtime.job_inflation", "ratio", median(server_cold_s) / median(alone_s));
  report.add("runtime.cache_lookups", "count", lookups);
  report.add("runtime.cache_hits", "count", hits);
  report.add("eco.reused_nodes", "count", reused / edits);
  report.add("eco.dirty_nodes", "count", dirty / edits);
  report.add("eco.ogws_iterations", "count", edit_iterations / edits);
  report.add("serve.queue_wait_s", "s", median(waits));
  report.add("obs.trace_overhead_s", "s", median(traced_cold) - median(untraced_cold));
  std::cout << "# serve-eco traced: " << rounds << " rounds; job_inflation base = the first "
            << kLocalBases << " circuits sized alone in-process (median " << median(alone_s)
            << " s) against their served job seconds (median " << median(server_cold_s)
            << " s); solver counts are summed over those " << kLocalBases << " circuits\n";
  if (!args.trace_out.empty()) log.write_json(args.trace_out);
  for (const auto& name : log.names()) {
    std::cout << "# self " << name << " " << log.self_seconds(name) << " s\n";
  }
  return report;
}

}  // namespace

Report run_serve_eco(const Args& args) {
  return args.trace ? traced(args) : untraced(args);
}

}  // namespace perfbench
