#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/lrs.hpp"
#include "core/multipliers.hpp"
#include "core/ogws.hpp"
#include "layout/channels.hpp"
#include "layout/coloring.hpp"
#include "layout/neighbors.hpp"
#include "layout/ordering.hpp"
#include "sim/patterns.hpp"
#include "sim/similarity.hpp"
#include "sim/simulator.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/metrics.hpp"
#include "timing/upstream.hpp"

namespace perfbench {

namespace lr = lrsizer;

void measure_stage1(const lr::netlist::LogicNetlist& netlist, const lr::core::FlowResult& flow,
                    const lr::core::FlowOptions& options, SpanLog& log, std::int64_t job,
                    LayerTotals& totals) {
  const auto& circuit = flow.circuit;
  const auto vectors = lr::sim::random_vectors(
      static_cast<std::int32_t>(netlist.primary_inputs().size()), options.num_vectors,
      options.pattern_seed);
  std::optional<lr::sim::SimResult> simulated;
  {
    Scope span(&log, "sim.simulate", job);
    simulated = lr::sim::simulate(netlist, vectors, options.sim);
  }
  totals.simulate_s += log.durations("sim.simulate").back();

  const lr::layout::ChannelAssignment channels =
      lr::layout::assign_channels(circuit, flow.net_of_node, netlist, options.channels);
  std::vector<std::vector<lr::netlist::NodeId>> orders;
  double similarity_s = 0.0;
  double woss_s = 0.0;
  for (const auto& tracks : channels.channels) {
    std::vector<std::int32_t> nets;
    for (lr::netlist::NodeId w : tracks) {
      nets.push_back(flow.net_of_node[static_cast<std::size_t>(w)]);
    }
    const auto n = static_cast<std::int32_t>(tracks.size());
    const auto t0 = Clock::now();
    const lr::sim::SimilarityMatrix matrix(*simulated, nets);
    similarity_s += since(t0);
    totals.similarity_pairs += 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
    totals.similarity_bytes += 8.0 * static_cast<double>(n) * static_cast<double>(n);
    std::vector<double> weights(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (std::int32_t a = 0; a < n; ++a) {
      for (std::int32_t b = 0; b < n; ++b) {
        weights[static_cast<std::size_t>(a * n + b)] = matrix.miller_weight(a, b);
      }
    }
    const lr::layout::DenseWeights view(n, std::move(weights));
    const auto t1 = Clock::now();
    std::vector<std::int32_t> order = lr::layout::woss_ordering(view);
    woss_s += since(t1);
    std::vector<lr::netlist::NodeId> track_order;
    for (std::int32_t i : order) track_order.push_back(tracks[static_cast<std::size_t>(i)]);
    orders.push_back(std::move(track_order));
  }
  const double end = log.now_s();
  log.add("sim.similarity", job, -1, end - similarity_s, end);
  log.add("layout.woss", job, -1, end - woss_s, end);
  totals.similarity_s += similarity_s;
  totals.woss_s += woss_s;

  lr::layout::MillerFn miller;
  if (options.neighbors.fold_miller) {
    miller = [&](lr::netlist::NodeId a, lr::netlist::NodeId b) {
      const std::vector<std::int32_t> nets = {flow.net_of_node[static_cast<std::size_t>(a)],
                                              flow.net_of_node[static_cast<std::size_t>(b)]};
      return lr::sim::SimilarityMatrix(*simulated, nets).miller_weight(0, 1);
    };
  }
  {
    Scope span(&log, "layout.coupling", job);
    const auto rebuilt =
        lr::layout::build_coupling_set(circuit, orders, options.neighbors, miller);
    totals.similarity_pairs += static_cast<double>(rebuilt.pairs().size());
  }
  totals.coupling_s += log.durations("layout.coupling").back();
  ++totals.jobs;
}

void measure_kernels(const lr::core::FlowResult& flow, const lr::core::FlowOptions& options,
                     lr::util::Executor* exec, int reps, SpanLog& log, std::int64_t job,
                     LayerTotals& totals) {
  const auto& circuit = flow.circuit;
  const auto& coupling = flow.coupling;
  const auto& bounds = flow.bounds;
  const auto mode = options.ogws.lrs.mode;
  const std::vector<double>& x = flow.ogws.sizes;
  const double area_ref = std::max(flow.init_metrics.area_um2, 1e-12);
  const lr::core::DualScales scales{area_ref, area_ref / bounds.delay_s,
                                    area_ref / bounds.cap_f, area_ref / bounds.noise_f};

  lr::core::MultiplierState multipliers(circuit);
  multipliers.init_default(circuit);
  const auto& warm = flow.ogws.warm;
  if (!warm.lambda.empty()) {
    multipliers.lambda = warm.lambda;
    multipliers.beta = warm.beta;
    multipliers.gamma = warm.gamma;
    multipliers.gamma_net = warm.gamma_net;
  } else {
    for (double& v : multipliers.lambda) v *= scales.lambda_scale;
  }
  const bool per_net = bounds.per_net_enabled();
  if (per_net && multipliers.gamma_net.empty()) {
    multipliers.gamma_net.assign(static_cast<std::size_t>(circuit.num_nodes()), 0.0);
  }
  std::vector<double> mu;
  multipliers.compute_mu(circuit, mu, exec);

  // Median of `reps` timed calls; `prepare` restores inputs untimed.
  auto timed = [&](const char* name, auto&& prepare, auto&& call) {
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
      prepare();
      Scope span(&log, name, job);
      const auto t0 = Clock::now();
      call();
      seconds.push_back(since(t0));
    }
    return median(seconds);
  };
  auto nothing = [] {};

  lr::timing::LoadAnalysis loads;
  totals.loads_s += timed("timing.loads", nothing, [&] {
    lr::timing::compute_loads(circuit, coupling, x, mode, loads, exec);
  });
  lr::timing::ArrivalAnalysis arrivals;
  totals.arrivals_s += timed("timing.arrivals", nothing, [&] {
    lr::timing::compute_arrivals(circuit, x, loads, arrivals, exec);
  });
  std::vector<double> r_up;
  totals.upstream_s += timed("timing.upstream", nothing, [&] {
    lr::timing::compute_weighted_upstream(circuit, x, mu, r_up, exec);
  });

  std::optional<lr::netlist::LevelSchedule> colors;
  lr::core::LrsRuntime runtime;
  if (!lr::util::serial(exec)) {
    colors.emplace(lr::layout::build_coupling_colors(circuit, coupling));
    runtime.executor = exec;
    runtime.colors = &*colors;
  }
  const lr::core::NoiseMultipliers gamma =
      per_net ? lr::core::NoiseMultipliers(multipliers.gamma, &multipliers.gamma_net)
              : lr::core::NoiseMultipliers(multipliers.gamma);
  lr::core::LrsWorkspace workspace;
  std::vector<double> x_work;
  totals.lrs_solve_s += timed(
      "core.lrs_solve", [&] { x_work = x; },
      [&] {
        lr::core::run_lrs(circuit, coupling, mu, multipliers.beta, gamma, options.ogws.lrs,
                          x_work, workspace, runtime);
      });

  const double cap = lr::timing::total_cap(circuit, x);
  const double noise = coupling.noise_linear(x);
  const double rho =
      options.ogws.step0 / std::sqrt(static_cast<double>(std::max(1, flow.ogws.iterations)));
  const lr::core::MultiplierState saved = multipliers;
  totals.dual_step_s += timed(
      "core.dual_step", [&] { multipliers = saved; },
      [&] {
        lr::core::dual_ascent_step(circuit, coupling, bounds, options.ogws, arrivals, x, cap,
                                   noise, rho, scales, multipliers, exec);
      });
}

void SolverCounts::add(const lr::core::OgwsIterate& iterate) {
  iterations += 1.0;
  lrs_passes += iterate.lrs_passes;
  lrs_nodes += static_cast<double>(iterate.lrs_nodes_processed);
  iteration_s.push_back(iterate.seconds);
}

void report_layers(const LayerTotals& totals, const SolverCounts& counts, double per,
                   Report& report) {
  const double jobs = static_cast<double>(std::max<std::int64_t>(1, totals.jobs));
  report.add("sim.simulate_s", "s", totals.simulate_s / jobs);
  report.add("sim.similarity_s", "s", totals.similarity_s / jobs);
  report.add("sim.similarity_pairs", "count", totals.similarity_pairs / jobs);
  report.add("sim.similarity_bytes", "B", totals.similarity_bytes / jobs);
  report.add("layout.woss_s", "s", totals.woss_s / jobs);
  report.add("layout.coupling_s", "s", totals.coupling_s / jobs);
  report.add("timing.loads_s", "s", totals.loads_s / jobs);
  report.add("timing.arrivals_s", "s", totals.arrivals_s / jobs);
  report.add("timing.upstream_s", "s", totals.upstream_s / jobs);
  report.add("core.lrs_solve_s", "s", totals.lrs_solve_s / jobs);
  report.add("core.dual_step_s", "s", totals.dual_step_s / jobs);
  report.add("core.iteration_s", "s", median(counts.iteration_s));
  report.add("core.ogws_iterations", "count", counts.iterations / per);
  report.add("core.lrs_passes", "count", counts.lrs_passes / per);
  report.add("core.lrs_nodes_processed", "count", counts.lrs_nodes / per);
}

}  // namespace perfbench
