// The long-lived sizing service behind `lrsizer serve`.
//
// A Server reads lrsizer-serve-v3 request lines (serve/protocol.hpp),
// schedules each size job as one api::SizingSession on a
// runtime::ThreadPool, and streams responses — accepted, periodic progress
// (from the session's IterationObserver), then exactly one terminal
// result / cancelled / error per job — through per-client line sinks.
// Responses for different jobs interleave; per job the order is always
// accepted → progress* → terminal.
//
// Reliability (docs/RELIABILITY.md): jobs carry deadlines (request
// "deadline_ms" or --default-deadline-ms) enforced by a watchdog thread
// that fires the job's stop_source — the session yields its best partial
// result, answered as a result with "timeout": true. Admission control
// layers a cost budget (Σ pending node counts) and a per-client fairness
// cap on top of the flat max_pending; shed jobs get an `overloaded` error
// with a retry_after_ms hint. begin_drain() flips the server into drain
// mode: new size requests are rejected with code `shutdown` while accepted
// work finishes (or deadlines out), which is the SIGTERM path.
//
// Clients: a Server fans in any number of clients (add_client/remove_client),
// each with its own sink. Job ids are scoped per client — two clients may
// both run a job named "a" — and a cancel only reaches the canceller's own
// jobs. Removing a client cancels its in-flight jobs and drops any response
// still heading its way; the cache entries its jobs produced stay shared.
//
// Every job is deduped through a runtime::ResultCache: completed identical
// jobs answer instantly with the stored report (byte-identical payload),
// and an identical job arriving while its twin is still running attaches
// as a follower and shares the result when it lands (in-flight dedupe) —
// including across clients. A caller-supplied cache can be disk-backed and
// shared across restarts; by default the server owns a memory-only cache.
//
// Threading: calls for one client must be serialized (lines have an order),
// but different clients' handle_line calls may run concurrently. Each sink
// is invoked from read threads and pool workers, one complete line per
// call, serialized per client by an internal mutex — it only needs to
// write and flush. drain() blocks until every accepted job has emitted its
// terminal response.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <queue>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/flow.hpp"
#include "obs/registry.hpp"
#include "runtime/cache.hpp"
#include "runtime/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"

namespace lrsizer::serve {

struct ServerOptions {
  /// Concurrent jobs (pool workers); clamped to >= 1.
  int jobs = 1;
  /// Defaults for every job; request "options" objects override per job.
  core::FlowOptions base_options;
  /// Result cache (borrowed, must outlive the server; may be shared with
  /// run_batch or other servers). nullptr: the server owns a memory-only
  /// cache.
  runtime::ResultCache* cache = nullptr;
  /// Budget for the owned cache (ignored when `cache` is supplied — a
  /// borrowed cache brings its own limits).
  runtime::CacheLimits cache_limits;
  /// On a cache miss, ECO warm-start from the cached base sharing the most
  /// output cones with the request's netlist (ResultCache::lookup_base),
  /// seeding clean-net sizes and — when the circuit shape matches — the
  /// multiplier state (docs/ECO.md). A request naming "eco_base" uses its
  /// named base regardless of this flag. The seeded run is not
  /// bit-identical to a cold run.
  bool eco = false;
  /// Backpressure: with > 0, a size request arriving while this many jobs
  /// are already accepted-but-unfinished is rejected with an `overloaded`
  /// error response (the client retries after its retry_after_ms hint).
  /// 0 = unbounded queue.
  int max_pending = 0;
  /// Fairness: with > 0, one client may have at most this many jobs
  /// accepted-but-unfinished; beyond it the request is shed `overloaded`
  /// even when global budgets have room, so a greedy client cannot starve
  /// the rest. 0 = no per-client cap.
  int max_pending_per_client = 0;
  /// Cost-aware admission: with > 0, a size request whose estimated cost
  /// (logic node count) would push Σ pending costs past this budget is
  /// shed `overloaded`. An empty queue always admits — one over-budget job
  /// is allowed to run alone rather than being unservable. 0 = no budget.
  std::int64_t max_queue_cost = 0;
  /// Deadline applied to jobs whose request names none (ms, from
  /// admission). A request's "deadline_ms" overrides, including 0 = none.
  /// 0 here = no default deadline.
  std::int64_t default_deadline_ms = 0;
  /// A request line longer than this is rejected with an error response
  /// instead of being buffered without bound (enforced by the TCP
  /// front-end, which is the one reading from untrusted peers).
  std::size_t max_line_bytes = 8u << 20;
  /// Server-wide cooperative shutdown (e.g. SIGINT): running jobs are
  /// cancelled mid-OGWS and answer `cancelled`.
  std::stop_token stop;
  /// Reported in the hello message, the stats response and the
  /// lrsizer_build_info metric.
  std::string version;
  /// Telemetry registry (borrowed, must outlive the server). The server
  /// publishes every counter it keeps — job admissions, terminal responses,
  /// cache traffic, queue depth, job latency — into it; stats_snapshot()
  /// reads the same instruments back, so the jsonl stats response and a
  /// /metrics scrape can never disagree. nullptr: the server owns a private
  /// registry (reachable via registry()). Sharing one registry between
  /// servers merges their series — intended for a registry shared with
  /// run_batch, not for two servers.
  obs::Registry* registry = nullptr;
};

class Server {
 public:
  /// `sink` receives every response as one complete line (no trailing
  /// newline); it must write-and-flush so clients see responses promptly.
  using Sink = std::function<void(const std::string& line)>;
  /// Handle for one attached client; scopes job ids and owns one sink.
  using ClientId = std::uint64_t;

  /// Multi-client server: attach clients with add_client().
  explicit Server(ServerOptions options);
  /// Single-client convenience: `sink` becomes the default client that the
  /// id-less hello()/handle_line() overloads talk to.
  Server(ServerOptions options, Sink sink);
  /// Drains in-flight jobs (equivalent to drain()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attach a client. Its sink may be called until remove_client returns.
  ClientId add_client(Sink sink);
  /// Detach: cancels the client's in-flight jobs, drops pending responses
  /// to it, and guarantees its sink is never called again after return.
  void remove_client(ClientId client);
  std::size_t active_clients() const;

  /// Emit the hello line (schema, version, workers, cache mode).
  void hello(ClientId client);
  void hello();  ///< default client

  /// Handle one request line for this client (empty/blank lines are
  /// ignored). Returns false when the line was a shutdown request — the
  /// caller should stop reading and drain().
  bool handle_line(ClientId client, const std::string& line);
  bool handle_line(const std::string& line);  ///< default client

  /// Emit an error response to this client without parsing anything — the
  /// TCP front-end's path for lines it refuses to buffer (oversized).
  void reject(ClientId client, const std::string& message);

  /// Block until every accepted job has emitted its terminal response.
  void drain();

  /// Enter drain mode (idempotent, callable from any thread — including a
  /// signal-watcher): new size requests are rejected with code `shutdown`,
  /// in-flight jobs run to their terminal response (or their deadline),
  /// stats reports state "draining" and /healthz turns 503. There is no way
  /// back to serving.
  void begin_drain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  /// True when no accepted job is awaiting its terminal response — together
  /// with draining(), the front-end's "drain complete, exit now" signal.
  bool idle() const;

  /// hello + read lines until EOF or shutdown + drain (default client).
  /// Returns 0.
  int serve_stream(std::istream& in);

  const ServerOptions& options() const { return options_; }

  /// The telemetry registry this server publishes into — the caller's
  /// (ServerOptions::registry) or the server-owned default. The HTTP
  /// /metrics endpoint renders registry().snapshot().
  obs::Registry& registry() const { return *registry_; }

  /// Job counters, re-read from the registry instruments (the registry is
  /// the single source of truth; this struct is the legacy in-process view).
  struct Stats {
    std::size_t accepted = 0;   ///< size requests admitted
    std::size_t completed = 0;  ///< result responses (hit or cold)
    std::size_t cache_hits = 0; ///< results answered without running
    std::size_t cancelled = 0;  ///< cancelled responses
    std::size_t timeouts = 0;   ///< jobs cut by their deadline
    std::size_t errors = 0;     ///< error responses (parse + job failures)
    std::size_t shed = 0;       ///< jobs rejected by admission control
  };
  Stats stats() const;

  /// Everything the stats response carries: job counters, queue depth,
  /// client count, cache counters, and p50/p99 job latency.
  StatsSnapshot stats_snapshot() const;

 private:
  /// One accepted job from admission to its terminal response. Kept whole
  /// (including the netlist) so a follower whose owner aborted can re-run.
  struct Pending {
    ClientId client = 0;
    SizeRequest request;
    std::string scoped_id;  ///< "<client>:<id>" — the active_ key
    runtime::CacheKey key;
    bool cacheable = false;
    std::stop_source stop;
    std::chrono::steady_clock::time_point accepted_at;
    /// Admission cost (logic node count), released by finish().
    std::int64_t cost = 0;
    /// Deadline bookkeeping: armed at admission when the effective deadline
    /// is > 0. The watchdog sets timed_out *before* firing stop, so the
    /// terminal path can tell a deadline cut from a client cancel.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::atomic<bool> timed_out{false};
    /// ECO seeding accounting (schedule() fills it, execute() embeds it as
    /// the job's "eco" block). eco_base empty: the job was not ECO-seeded.
    std::string eco_base;
    std::int64_t eco_reused_nodes = 0;
    std::int32_t eco_dirty_gates = 0;
  };

  /// One attached client. The mutex serializes its sink; a removed client
  /// keeps its (empty) slot alive through shared_ptrs held by in-flight
  /// emitters, which then find no sink and drop the line.
  struct Client {
    std::mutex mutex;
    Sink sink;
  };

  /// Wire every instrument and callback metric into registry_ (ctor tail;
  /// callbacks are tagged with `this` and dropped again in the destructor).
  void register_metrics();
  void emit(ClientId client, const runtime::Json& response);
  void emit(ClientId client, const std::string& line);
  /// Route through the cache (hit / follower / owner) or straight to the
  /// pool. Safe to call from read threads and from follower callbacks.
  void schedule(std::shared_ptr<Pending> pending);
  /// Run the job on the current (worker) thread and emit its terminal
  /// response; publishes/abandons the cache key for owners.
  void execute(const std::shared_ptr<Pending>& pending);
  /// The terminal step of every job: count it finished (latency, queue
  /// depth, admission budgets), then emit its terminal `line`. Counting
  /// first means a client reacting to the line (say, with a stats request)
  /// sees the job done; callers bump their response counters before this
  /// call for the same reason. drain() still waits for the line itself.
  void finish(const std::shared_ptr<Pending>& pending, const std::string& line);
  void handle_size(ClientId client, SizeRequest request);
  void handle_cancel(ClientId client, const std::string& id);
  /// Register `pending` with the deadline watchdog (lazily starting it).
  void arm_deadline(const std::shared_ptr<Pending>& pending);
  void watchdog_loop();
  /// Backoff hint for `overloaded` rejections: scaled from the p50 job
  /// latency and the queue depth, clamped to [50, 10000] ms.
  std::int64_t retry_after_ms(std::size_t depth) const;

  ServerOptions options_;
  std::unique_ptr<runtime::ResultCache> owned_cache_;
  runtime::ResultCache* cache_ = nullptr;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;

  // Owned instruments (stable pointers into registry_). Counter writes are
  // lock-free, so the job counters no longer live under mutex_.
  obs::Counter* accepted_total_ = nullptr;
  obs::Counter* results_total_ = nullptr;    ///< responses_total{type="result"}
  obs::Counter* cancelled_total_ = nullptr;  ///< responses_total{type="cancelled"}
  obs::Counter* errors_total_ = nullptr;     ///< responses_total{type="error"}
  obs::Counter* timeouts_total_ = nullptr;   ///< lrsizer_jobs_timeout_total
  obs::Counter* shed_total_ = nullptr;       ///< lrsizer_serve_shed_total
  obs::Counter* cache_hits_total_ = nullptr;
  obs::Counter* eco_jobs_total_ = nullptr;          ///< lrsizer_eco_jobs_total
  obs::Counter* eco_reused_nodes_total_ = nullptr;  ///< lrsizer_eco_reused_nodes_total
  obs::Counter* eco_dirty_gates_total_ = nullptr;   ///< lrsizer_eco_dirty_gates_total
  obs::Histogram* latency_seconds_ = nullptr;

  std::chrono::steady_clock::time_point start_steady_{};
  double start_unix_s_ = 0.0;  ///< system clock at construction (Unix seconds)

  /// Guards clients_/next_client_ only — never held while mutex_ or a
  /// Client::mutex is taken by the same thread's caller (emit locks them
  /// strictly in sequence, not nested).
  mutable std::mutex clients_mutex_;
  std::unordered_map<ClientId, std::shared_ptr<Client>> clients_;
  ClientId next_client_ = 1;
  ClientId default_client_ = 0;  ///< 0 = none (multi-client ctor)

  /// Set by begin_drain(); read lock-free on the request path.
  std::atomic<bool> draining_{false};

  mutable std::mutex mutex_;  ///< guards active_, in_flight_, emitting_,
                              ///< queue_cost_, client_pending_
  std::condition_variable idle_cv_;
  /// scoped_id -> job; ids live in per-client namespaces.
  std::unordered_map<std::string, std::shared_ptr<Pending>> active_;
  std::size_t in_flight_ = 0;
  /// Terminal lines finish() has counted but not yet handed to their sink;
  /// drain() and idle() wait for these too.
  std::size_t emitting_ = 0;
  /// Σ Pending::cost of accepted-but-unfinished jobs (admission budget).
  std::int64_t queue_cost_ = 0;
  /// Accepted-but-unfinished jobs per client (fairness cap); entries are
  /// erased when they reach zero.
  std::unordered_map<ClientId, int> client_pending_;

  /// Deadline watchdog: a min-heap of (deadline, job) serviced by one
  /// lazily-started thread that fires each job's stop_source on time.
  /// weak_ptr so a finished job just evaporates from the heap.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point when;
    std::weak_ptr<Pending> job;
    bool operator>(const DeadlineEntry& other) const {
      return when > other.when;
    }
  };
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  bool watchdog_exit_ = false;
  std::thread watchdog_;  ///< joinable iff a deadline was ever armed

  runtime::ThreadPool pool_;  ///< last member: workers die before the rest
};

}  // namespace lrsizer::serve
