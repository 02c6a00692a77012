// table1-batch: all ten Table-1 profiles at generator seeds 1, 2 and 3 (c6288
// at seed 1 is a named fault), as one cold runtime::run_batch with nproc jobs
// of one thread each (a fresh in-memory result cache per round, as the CLI's
// batch has); then each job again, submitted alone and answered from that
// cache; then a run_batch of six single-gate edits per profile, ECO-seeded
// from the cold batch. Many small jobs share one process, so job-level
// parallelism and cross-job interference dominate; intra-job threading is
// bypassed and stage 1 is a small share of the time.
#include <algorithm>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "checker.hpp"
#include "common.hpp"
#include "eco/incremental.hpp"
#include "layers.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "obs/trace.hpp"
#include "runtime/batch.hpp"
#include "runtime/cache.hpp"
#include "runtime/pool.hpp"

namespace perfbench {

namespace {

namespace lr = lrsizer;

/// The job list is fixed: every profile at generator seeds 1, 2 and 3 (the
/// cost of a round varied 40% between seed draws). c6288 at seed 1 stops at
/// the iteration cap: the named fault, failed on every round.
const std::vector<std::uint64_t> kSeeds = {1, 2, 3};

/// The edits are fixed too: flip_one_gate salts 1 to 6 of each profile's
/// last job (generator seed 3), so that no edit starts from the named
/// fault's unconverged result. Seed-drawn edits moved the median of these
/// re-sizes by up to 24% between runs, and with three edits per profile
/// the median fell in a sparse stretch of their costs and moved 19%.
const std::vector<std::uint64_t> kEditSalts = {1, 2, 3, 4, 5, 6};

lr::core::FlowOptions options_for(std::uint64_t seed) {
  lr::core::FlowOptions options;
  options.elab.seed = seed;  // as `lrsizer batch --seed`
  return options;
}

struct Inputs {
  std::vector<lr::runtime::BatchJob> cold;
  /// Edited netlists, each of the cold job at index edit_base[i] by the
  /// flip_one_gate salt edit_salt[i].
  std::vector<lr::netlist::LogicNetlist> edits;
  std::vector<std::size_t> edit_base;
  std::vector<std::uint64_t> edit_salt;
};

Inputs make_inputs() {
  Inputs in;
  for (const auto& profile : lr::netlist::iscas85_profiles()) {
    for (std::uint64_t seed : kSeeds) {
      in.cold.push_back(lr::runtime::make_profile_job(profile.name, seed, options_for(seed)));
    }
    const std::size_t base = in.cold.size() - 1;
    for (std::uint64_t salt : kEditSalts) {
      in.edit_base.push_back(base);
      in.edit_salt.push_back(salt);
      in.edits.push_back(flip_one_gate(in.cold[base].netlist, salt));
    }
  }
  return in;
}

struct Round {
  lr::runtime::BatchResult cold;
  std::vector<lr::runtime::JobOutcome> repeats;  ///< each cold job again, from the cache
  std::vector<double> repeat_s;                  ///< submit to result, per repeat
  lr::runtime::BatchResult edits;
  std::vector<double> seed_s;  ///< ECO seeding time per edit job
  std::vector<lr::eco::EcoSeed> seeds;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
};

Round run_round(const Inputs& in, int jobs, bool with_edits, SpanLog* log,
                lr::obs::TraceSession* trace, const lr::runtime::BatchObserver& observer) {
  Round round;
  lr::runtime::ResultCache cache;
  lr::runtime::BatchOptions options;
  options.jobs = jobs;
  options.cache = &cache;
  options.trace = trace;
  options.observer = observer;
  {
    Scope span(log, "runtime.run_batch", 0);
    round.cold = lr::runtime::run_batch(in.cold, options);
  }
  if (with_edits) {
    // Each job submitted again alone, on a pool kept for the repeats: a
    // cache hit is answered in about 0.1 ms, so one batch of all of them
    // would mostly time its own thread pool.
    lr::runtime::ThreadPool pool(jobs);
    Scope span(log, "runtime.run_batch", 2);
    for (const auto& job : in.cold) {
      std::vector<lr::runtime::BatchJob> one{job};
      const auto t0 = Clock::now();
      auto repeat = lr::runtime::run_batch(std::move(one), pool, options);
      round.repeat_s.push_back(since(t0));
      round.repeats.push_back(std::move(repeat.jobs.front()));
    }
  }
  const auto stats = cache.stats();
  round.cache_lookups = stats.hits + stats.misses;
  round.cache_hits = stats.hits;
  if (with_edits) {
    std::vector<lr::runtime::BatchJob> edits;
    for (std::size_t i = 0; i < in.edits.size(); ++i) {
      const auto& base = round.cold.jobs[in.edit_base[i]];
      if (!base.ok || !base.flow) continue;
      Scope span(log, "eco.seed", static_cast<std::int64_t>(i));
      const auto ts = Clock::now();
      lr::runtime::BatchJob job;
      job.name = base.name + "-edit-salt" + std::to_string(in.edit_salt[i]);
      job.seed = base.seed;
      job.netlist = in.edits[i];
      job.options = in.cold[in.edit_base[i]].options;
      const lr::eco::EcoSeed seed = lr::eco::seed_from_index(
          job.netlist, job.options, lr::eco::build_eco_index(base.netlist, *base.flow));
      job.warm_sizes = seed.sizes;
      job.eco_warm = seed.multipliers;
      round.seed_s.push_back(since(ts));
      round.seeds.push_back(seed);
      edits.push_back(std::move(job));
    }
    options.cache = nullptr;  // seeded jobs bypass the cache anyway
    Scope span(log, "runtime.run_batch", 3);
    round.edits = lr::runtime::run_batch(std::move(edits), options);
  }
  return round;
}

/// Judge every job of a round; returns Σ final area of the cold jobs with a
/// result. A repeat must be a cache hit whose summary is identical to that
/// of the job it repeats; its latency runs from its run_batch call to the
/// result (a cache hit has no worker time of its own).
double judge(const Round& round, const Inputs& in, Report& report,
             std::vector<double>* cold_s, std::vector<double>* edit_s,
             std::vector<double>* repeat_s, std::vector<double>* latencies) {
  double area = 0.0;
  auto judge_one = [&](const lr::runtime::JobOutcome& job, const lr::core::FlowOptions& options,
                       const char* kind) {
    ++report.attempted;
    const std::string what =
        std::string(kind) + " job " + job.name + " seed " + std::to_string(job.seed);
    if (!job.ok || !job.flow) {
      report.failed_op(what, job.error);
      return false;
    }
    area += job.summary.area_um2;
    if (!job.summary.converged) {
      report.failed_op(what, "converged: false");
      return false;
    }
    if (const std::string err = check_flow(*job.flow, options); !err.empty()) {
      report.failed_op(what, err);
      report.wrong(what + ": " + err);
      return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < round.cold.jobs.size(); ++i) {
    const auto& job = round.cold.jobs[i];
    if (judge_one(job, in.cold[i].options, "cold")) {
      if (cold_s) cold_s->push_back(job.seconds);
      if (latencies) latencies->push_back(job.seconds);
    }
  }
  const double cold_area = area;
  for (std::size_t i = 0; i < round.repeats.size(); ++i) {
    const auto& job = round.repeats[i];
    const auto& original = round.cold.jobs[i];
    ++report.attempted;
    const std::string what = "repeat job " + job.name + " seed " + std::to_string(job.seed);
    const auto& a = job.summary;
    const auto& b = original.summary;
    if (!job.ok || !job.cache_hit || a.iterations != b.iterations ||
        a.converged != b.converged || a.area_um2 != b.area_um2 || a.dual != b.dual ||
        a.rel_gap != b.rel_gap) {
      report.failed_op(what, "not a cache hit identical to the job it repeats");
      report.wrong(what + ": cache hit differs from the job it repeats");
    } else if (!a.converged) {
      report.failed_op(what, "converged: false");
    } else {
      if (repeat_s) repeat_s->push_back(round.repeat_s[i]);
      if (latencies) latencies->push_back(round.repeat_s[i]);
    }
  }
  for (std::size_t i = 0; i < round.edits.jobs.size(); ++i) {
    const auto& job = round.edits.jobs[i];
    if (judge_one(job, in.cold[in.edit_base[i]].options, "edit")) {
      if (edit_s) edit_s->push_back(round.seed_s[i] + job.seconds);
      if (latencies) latencies->push_back(round.seed_s[i] + job.seconds);
    }
  }
  return cold_area;
}

Report untraced(const Args& args) {
  Report report;
  std::vector<double> setups;
  std::optional<Inputs> in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = i == 0 ? args.started : Clock::now();
    in.reset();
    in = make_inputs();
    setups.push_back(since(t0));
  }

  PerRound cold_s;
  PerRound edit_s;
  PerRound repeat_s;
  PerRound latencies;
  double round_area = 0.0;
  double busy = 0.0;  // the timed phase without the checker
  // One untimed round first: a process's first round ran its cold jobs up
  // to 2.7x slower than the later ones.
  run_round(*in, nproc(), true, nullptr, nullptr, {});
  int rounds = 0;
  const auto start = Clock::now();
  while (rounds == 0 || since(start) < args.seconds) {
    const auto round_start = Clock::now();
    const Round round = run_round(*in, nproc(), true, nullptr, nullptr, {});
    busy += since(round_start);
    std::vector<double> cold;
    std::vector<double> edit;
    std::vector<double> repeat;
    std::vector<double> all;
    const double area = judge(round, *in, report, &cold, &edit, &repeat, &all);
    cold_s.add(std::move(cold));
    edit_s.add(std::move(edit));
    repeat_s.add(std::move(repeat));
    latencies.add(std::move(all));
    if (rounds == 0) round_area = area;
    ++rounds;
  }
  const double rss = peak_rss_mb();

  report.add("setup_s", "s", median(setups));
  std::cout << "# set-ups (s):";
  for (double s : setups) std::cout << " " << s;
  std::cout << "\n";
  report.add("job_s", "s", cold_s.median());
  report.add("jobs_per_s", "jobs/s",
             static_cast<double>(report.attempted - report.failed) / busy);
  report.add("request_s_p50", "s", latencies.quantile(0.5));
  report.add("request_s_p90", "s", latencies.quantile(0.9));
  report.add("eco_request_s", "s", edit_s.median());
  report.add("repeat_request_s", "s", repeat_s.median());
  report.add("final_area_um2", "um2", round_area);
  report.add("peak_rss_mb", "MB", rss);
  std::cout << "# table1-batch: " << rounds << " rounds of " << in->cold.size()
            << " cold jobs + as many repeats + " << in->edits.size() << " edits at " << nproc()
            << " jobs; generator seeds:";
  for (const auto& job : in->cold) std::cout << " " << job.name << "@" << job.seed;
  std::cout << "\n";
  return report;
}

Report traced(const Args& args) {
  Report report;
  SpanLog log;
  const Inputs in = make_inputs();

  const Round reference = run_round(in, nproc(), true, nullptr, nullptr, {});
  std::vector<double> reference_s;
  judge(reference, in, report, &reference_s, nullptr, nullptr, nullptr);

  SolverCounts counts;
  std::mutex counts_mutex;
  lr::obs::TraceSession trace;
  const double trace_origin = log.now_s();
  const double cpu0 = cpu_seconds();
  const std::uint64_t submit_us = trace.now_us();
  const Round round = run_round(in, nproc(), true, &log, &trace,
                                [&](const std::string&, const lr::core::OgwsIterate& it) {
                                  std::lock_guard<std::mutex> lock(counts_mutex);
                                  counts.add(it);
                                });
  const double cpu = cpu_seconds() - cpu0;
  std::vector<double> traced_s;
  judge(round, in, report, &traced_s, nullptr, nullptr, nullptr);

  // The same cold job list at one job: the base of runtime.job_inflation.
  const Round serial = run_round(in, 1, false, nullptr, nullptr, {});
  std::vector<double> serial_s;
  judge(serial, in, report, &serial_s, nullptr, nullptr, nullptr);

  // Library spans of the traced round: stage times and queue waits. A
  // worker runs its jobs one after another, so each "elaborate" span on a
  // thread opens the next job there.
  std::map<std::string, double> stage_s;
  std::vector<double> waits;
  std::map<int, std::int64_t> job_on_tid;
  std::int64_t next_job = 0;
  const auto spans = trace.spans();
  for (const auto& s : spans) {
    if (s.name == "elaborate") {
      job_on_tid[s.tid] = next_job++;
      if (waits.size() < in.cold.size()) {
        waits.push_back(1e-6 * static_cast<double>(s.ts_us - submit_us));
      }
    }
    stage_s[s.name] += 1e-6 * static_cast<double>(s.dur_us);
    const double start = trace_origin + 1e-6 * static_cast<double>(s.ts_us);
    log.add("lib." + s.name, job_on_tid.count(s.tid) ? job_on_tid[s.tid] : -1, -1, start,
            start + 1e-6 * static_cast<double>(s.dur_us));
  }
  const double jobs = static_cast<double>(std::max<std::int64_t>(1, next_job));

  LayerTotals totals;
  double cost_initial = 0.0;
  double cost_woss = 0.0;
  for (std::size_t i = 0; i < round.cold.jobs.size(); ++i) {
    const auto& job = round.cold.jobs[i];
    if (!job.ok || !job.flow) continue;
    measure_stage1(job.netlist, *job.flow, in.cold[i].options, log,
                   static_cast<std::int64_t>(i), totals);
    measure_kernels(*job.flow, in.cold[i].options, nullptr, 3, log,
                    static_cast<std::int64_t>(i), totals);
    cost_initial += job.flow->ordering_cost_initial;
    cost_woss += job.flow->ordering_cost_woss;
  }
  double reused = 0.0;
  double dirty = 0.0;
  double edit_iterations = 0.0;
  for (std::size_t i = 0; i < round.edits.jobs.size(); ++i) {
    reused += static_cast<double>(round.seeds[i].reused_nodes);
    dirty += round.seeds[i].dirty_gates;
    edit_iterations += round.edits.jobs[i].summary.iterations;
  }
  const double edits = static_cast<double>(std::max<std::size_t>(1, round.edits.jobs.size()));

  report.add("api.elaborate_s", "s", stage_s["elaborate"] / jobs);
  report.add("api.stage1_s", "s", stage_s["simulate_and_order"] / jobs);
  report.add("api.stage2_s", "s", (stage_s["derive_bounds"] + stage_s["size"]) / jobs);
  report_layers(totals, counts, 1.0, report);
  report.add("layout.ordering_cost_ratio", "ratio", cost_woss / cost_initial);
  report.add("runtime.cpu_s", "s", cpu);
  report.add("runtime.job_inflation", "ratio", median(reference_s) / median(serial_s));
  report.add("runtime.cache_lookups", "count", static_cast<double>(round.cache_lookups));
  report.add("runtime.cache_hits", "count", static_cast<double>(round.cache_hits));
  report.add("eco.reused_nodes", "count", reused / edits);
  report.add("eco.dirty_nodes", "count", dirty / edits);
  report.add("eco.ogws_iterations", "count", edit_iterations / edits);
  report.add("serve.queue_wait_s", "s", median(waits));
  report.add("obs.trace_overhead_s", "s", median(traced_s) - median(reference_s));
  std::cout << "# table1-batch traced: job_inflation base = median per-job seconds of the "
            << "same " << in.cold.size() << " cold jobs at 1 job (" << median(serial_s)
            << " s) against " << nproc() << " jobs (" << median(reference_s)
            << " s); serve.queue_wait_s is the wait from run_batch submission to a job's "
            << "first stage\n";
  if (!args.trace_out.empty()) log.write_json(args.trace_out);
  for (const auto& name : log.names()) {
    std::cout << "# self " << name << " " << log.self_seconds(name) << " s\n";
  }
  return report;
}

}  // namespace

Report run_table1_batch(const Args& args) {
  return args.trace ? traced(args) : untraced(args);
}

}  // namespace perfbench
