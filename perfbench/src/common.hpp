// Shared plumbing of the benchmark program: run arguments, the report that
// becomes the final JSON line, statistics, process counters, the seeded
// input helpers, and the span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/logic_netlist.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< the traced run writes its spans here
  std::string git = "unknown";
  /// Process start, as near as main() can tell: the first set-up counts from here.
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything the final JSON line carries.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// An output check failed: the run is not correct. Logged to stderr.
  void wrong(const std::string& why);
  /// One operation failed (error, unconverged, or refused by the checker).
  void failed_op(const std::string& what, const std::string& why);
};

// ---- statistics -------------------------------------------------------------

/// Quantile by linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

/// Samples of one latency, kept per round. Every round makes the same
/// operations, so each round's quantile measures the same quantity again;
/// the metric is the median over rounds of the rounds' quantiles. A
/// quantile pooled over all rounds can fall on the boundary between two
/// operations' clusters of samples (with an even count per round, the
/// median always does) and then jumps with the noise in their tails.
class PerRound {
 public:
  void add(std::vector<double> round) {
    if (!round.empty()) rounds_.push_back(std::move(round));
  }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<std::vector<double>> rounds_;
};

// ---- process and host ---------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// User + system CPU seconds of this process so far.
double cpu_seconds();
/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// Hardware threads, as the library's thread pools count them.
int nproc();
std::string cpu_model();

// ---- seeded inputs ------------------------------------------------------------

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n) for n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// `base` with the op of one logic gate swapped for its complement
/// (AND<->NAND, OR<->NOR, XOR<->XNOR, BUF<->NOT): a single-gate ECO anywhere
/// in the circuit that keeps the elaborated structure. The gate is picked
/// among all logic gates by `salt`.
lrsizer::netlist::LogicNetlist flip_one_gate(const lrsizer::netlist::LogicNetlist& base,
                                             std::uint64_t salt);

// ---- traced run ---------------------------------------------------------------

/// In-memory span log: name, start, end, parent span and job id. Spans are
/// recorded by the benchmark around its calls into each layer and written
/// once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t job = -1;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
    double start_s = 0.0;      ///< seconds since the log was created
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  SpanLog() : origin_(Clock::now()) {}
  /// Open a span; returns its index (the parent handle of nested spans).
  std::int64_t open(const std::string& name, std::int64_t job, std::int64_t parent = -1);
  void close(std::int64_t span);
  /// Record an already-measured interval (times in seconds on this log's clock).
  std::int64_t add(const std::string& name, std::int64_t job, std::int64_t parent,
                   double start_s, double end_s);
  double now_s() const { return since(origin_); }
  double to_log_time(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  std::vector<Span> spans() const;
  /// Durations of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Σ over spans with this name of (duration − time covered by children).
  double self_seconds(const std::string& name) const;
  /// Distinct span names, in first-seen order.
  std::vector<std::string> names() const;
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, std::int64_t job, std::int64_t parent = -1)
      : log_(log), id_(log != nullptr ? log->open(name, job, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int64_t id_;
};

// ---- workloads ------------------------------------------------------------------

/// Each runs one workload for args.seconds and fills the report with the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
Report run_large_cold(const Args& args);
Report run_table1_batch(const Args& args);
Report run_serve_eco(const Args& args);

/// Checker self-test: agreement with timing::compute_metrics on every
/// Table-1 profile and detection of a delay-bound violation. Returns the
/// process exit code.
int run_self_test();

/// Set-ups per untraced run; setup_s is their median (README.md).
constexpr int kSetups = 5;

}  // namespace perfbench
