// The traced run's layer measurements. sim, layout, timing and the LRS and
// dual kernels run inside SizingSession::simulate_and_order() and run_ogws,
// where the benchmark cannot wrap them, so the traced run calls each layer's
// public function again on the inputs of a finished job: its netlist, and
// from its FlowResult the circuit, coupling, bounds and final iterate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/flow.hpp"
#include "netlist/logic_netlist.hpp"
#include "util/parallel.hpp"

namespace perfbench {

/// Per-layer seconds and counts, accumulated over the jobs measured.
struct LayerTotals {
  std::int64_t jobs = 0;
  double simulate_s = 0.0;
  double similarity_s = 0.0;
  double woss_s = 0.0;
  double coupling_s = 0.0;
  double similarity_pairs = 0.0;
  double similarity_bytes = 0.0;
  double loads_s = 0.0;
  double arrivals_s = 0.0;
  double upstream_s = 0.0;
  double lrs_solve_s = 0.0;
  double dual_step_s = 0.0;
};

/// Stage 1 again, layer by layer: sim::simulate, one sim::SimilarityMatrix
/// per channel, layout::woss_ordering per channel and
/// layout::build_coupling_set, each recorded as a span under `parent`.
void measure_stage1(const lrsizer::netlist::LogicNetlist& netlist,
                    const lrsizer::core::FlowResult& flow,
                    const lrsizer::core::FlowOptions& options, SpanLog& log,
                    std::int64_t job, LayerTotals& totals);

/// One call each of compute_loads, compute_arrivals,
/// compute_weighted_upstream, run_lrs and dual_ascent_step at the job's
/// final iterate and best-dual multipliers, on `exec` (the workload's
/// thread count). Each is timed `reps` times; the median is added.
void measure_kernels(const lrsizer::core::FlowResult& flow,
                     const lrsizer::core::FlowOptions& options,
                     lrsizer::util::Executor* exec, int reps, SpanLog& log,
                     std::int64_t job, LayerTotals& totals);

/// Exact solver counts, fed by an api::IterationObserver.
struct SolverCounts {
  double iterations = 0.0;
  double lrs_passes = 0.0;
  double lrs_nodes = 0.0;
  std::vector<double> iteration_s;  ///< every iteration's wall time
  void add(const lrsizer::core::OgwsIterate& iterate);
};

/// The per-layer metrics every traced run reports: layer times averaged per
/// measured job, solver counts divided by `per` (the rounds they cover).
void report_layers(const LayerTotals& totals, const SolverCounts& counts, double per,
                   Report& report);

}  // namespace perfbench
