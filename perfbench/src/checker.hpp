// Independent output checker. It re-derives the sizing problem's metrics
// from the returned sizes, the circuit's public per-node parameters and the
// coupling pairs, without calling into timing/: area Σαx, total capacitance
// Σ(ĉx+f), the linearized noise Σĉ_ij(x_i+x_j) and the Elmore critical-path
// delay. The bounds A0/P0/X0 are re-derived the same way from the initial
// uniform sizes, so a wrong bound cannot hide a wrong solution.
#pragma once

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/problem.hpp"
#include "layout/neighbors.hpp"
#include "netlist/circuit.hpp"
#include "timing/loads.hpp"

namespace perfbench {

/// The four Table-1 quantities at one size vector.
struct CheckedMetrics {
  double area_um2 = 0.0;
  double cap_f = 0.0;
  double noise_f = 0.0;
  double delay_s = 0.0;
};

/// What the program claimed about its solution.
struct Claimed {
  double area_um2 = 0.0;   ///< the reported objective
  double delay_s = 0.0;    ///< reported final metrics
  double cap_f = 0.0;
  double noise_f = 0.0;
  double bound_delay_s = 0.0;  ///< reported A0/P0/X0
  double bound_cap_f = 0.0;
  double bound_noise_f = 0.0;
};

/// The problem statement the solution is checked against.
struct Problem {
  double initial_size = 1.0;
  lrsizer::core::BoundFactors factors;
  lrsizer::timing::CouplingLoadMode mode = lrsizer::timing::CouplingLoadMode::kLocalOnly;
  double feas_tol = 0.01;
};

CheckedMetrics evaluate(const lrsizer::netlist::Circuit& circuit,
                        const lrsizer::layout::CouplingSet& coupling,
                        const std::vector<double>& x,
                        lrsizer::timing::CouplingLoadMode mode);

/// Empty string when the solution passes; otherwise what failed. Checks:
/// sizes within [L, U]; area equal to the claim to 1e-9 relative; the other
/// metrics and the bounds equal to the claim to 1e-9 relative; delay, cap,
/// noise (and per-net noise when enabled) within (1 + feas_tol) of the
/// re-derived bounds.
std::string check_solution(const lrsizer::netlist::Circuit& circuit,
                           const lrsizer::layout::CouplingSet& coupling,
                           const std::vector<double>& x, const Problem& problem,
                           const Claimed& claimed);

/// The problem a job under `options` solves.
Problem problem_of(const lrsizer::core::FlowOptions& options);

/// check_solution on a finished flow: its returned sizes against its own
/// circuit and coupling, under `options`.
std::string check_flow(const lrsizer::core::FlowResult& flow,
                       const lrsizer::core::FlowOptions& options);

}  // namespace perfbench
