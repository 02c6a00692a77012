// Checker self-test: on every Table-1 profile, the independent checker's
// metrics agree with timing::compute_metrics at the initial and the final
// sizes, and shrinking components on the critical path until the delay
// bound breaks is caught by the checker and confirmed by the library.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "checker.hpp"
#include "common.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_profiles.hpp"
#include "timing/arrival.hpp"
#include "timing/loads.hpp"
#include "timing/metrics.hpp"

namespace perfbench {

namespace {

namespace lr = lrsizer;

double rel(double a, double b) {
  return std::fabs(a - b) / std::max({std::fabs(a), std::fabs(b), 1e-300});
}

/// Largest relative difference between the checker and the library.
double disagreement(const lr::core::FlowResult& flow, const std::vector<double>& x,
                    lr::timing::CouplingLoadMode mode) {
  const CheckedMetrics mine = evaluate(flow.circuit, flow.coupling, x, mode);
  const lr::timing::Metrics lib = lr::timing::compute_metrics(flow.circuit, flow.coupling, x, mode);
  return std::max({rel(mine.area_um2, lib.area_um2), rel(mine.cap_f, lib.cap_f),
                   rel(mine.noise_f, lib.noise_f), rel(mine.delay_s, lib.delay_s)});
}

}  // namespace

int run_self_test() {
  bool ok = true;
  std::printf("%-7s %10s %10s %-10s %s\n", "profile", "init diff", "final diff", "check",
              "delay-bound perturbation");
  for (const auto& profile : lr::netlist::iscas85_profiles()) {
    lr::core::FlowOptions options;
    lr::api::SizingSession session(
        lr::netlist::generate_circuit(lr::netlist::spec_for_profile(profile.name, 1)), options);
    if (!session.run_all().ok() && !session.has_result()) {
      std::printf("%-7s flow failed\n", profile.name.c_str());
      ok = false;
      continue;
    }
    const lr::core::FlowResult flow = session.take_result();
    const auto mode = options.ogws.lrs.mode;
    std::vector<double> x0(flow.ogws.sizes.size(), 0.0);
    for (auto v = flow.circuit.first_component(); v < flow.circuit.end_component(); ++v) {
      x0[static_cast<std::size_t>(v)] =
          std::clamp(options.initial_size, flow.circuit.lower_bound(v), flow.circuit.upper_bound(v));
    }
    const double d_init = disagreement(flow, x0, mode);
    const double d_final = disagreement(flow, flow.ogws.sizes, mode);
    const std::string verdict = check_flow(flow, options);
    const bool agree = d_init <= 1e-12 && d_final <= 1e-12;
    // The unconverged c6288 may return an infeasible iterate; every
    // converged job must pass.
    const bool check_ok = verdict.empty() || !flow.ogws.converged;

    // Shrink critical-path components to their lower bound, one at a time,
    // until the checker reports the delay bound broken.
    std::vector<double> x = flow.ogws.sizes;
    lr::timing::LoadAnalysis loads;
    lr::timing::ArrivalAnalysis arrivals;
    lr::timing::compute_loads(flow.circuit, flow.coupling, x, mode, loads);
    lr::timing::compute_arrivals(flow.circuit, x, loads, arrivals);
    std::string caught;
    for (const auto v : lr::timing::critical_path(flow.circuit, arrivals)) {
      if (!flow.circuit.is_sized(v)) continue;
      x[static_cast<std::size_t>(v)] = flow.circuit.lower_bound(v);
      // Claims that describe the perturbed sizes truthfully, so only the
      // bound itself can fail.
      const lr::timing::Metrics now =
          lr::timing::compute_metrics(flow.circuit, flow.coupling, x, mode);
      caught = check_solution(flow.circuit, flow.coupling, x, problem_of(options),
                              {now.area_um2, now.delay_s, now.cap_f, now.noise_f,
                               flow.bounds.delay_s, flow.bounds.cap_f, flow.bounds.noise_f});
      if (caught.rfind("delay ", 0) == 0 && caught.find("exceeds") != std::string::npos) break;
      caught.clear();
    }
    const double late =
        lr::timing::compute_metrics(flow.circuit, flow.coupling, x, mode).delay_s /
        flow.bounds.delay_s;
    const bool perturbation_ok =
        !caught.empty() && late > 1.0 + options.ogws.feas_tol;
    ok = ok && agree && check_ok && perturbation_ok;
    std::printf("%-7s %10.2e %10.2e %-10s %s\n", profile.name.c_str(), d_init, d_final,
                verdict.empty() ? "pass" : (flow.ogws.converged ? "FAIL" : "unconverged"),
                perturbation_ok ? ("caught: " + caught).c_str() : "NOT CAUGHT");
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
