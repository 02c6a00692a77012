#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

using lrsizer::netlist::Circuit;
using lrsizer::netlist::NodeId;
using lrsizer::netlist::NodeKind;

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

/// Elmore delay of the circuit graph: a reverse sweep for each node's
/// downstream capacitance (gates terminate their fanin stage, wires are
/// π-segments carrying their coupling capacitance), then a forward sweep of
/// arrival times a_i = r_i·C_i + max over fanins.
double elmore_delay(const Circuit& circuit,
                    const lrsizer::layout::CouplingSet& coupling,
                    const std::vector<double>& x,
                    lrsizer::timing::CouplingLoadMode mode) {
  const auto n = static_cast<std::size_t>(circuit.num_nodes());
  const NodeId sink = circuit.sink();
  std::vector<double> load_in(n, 0.0);
  std::vector<double> cap_delay(n, 0.0);
  for (NodeId v = sink - 1; v >= 1; --v) {
    const auto i = static_cast<std::size_t>(v);
    double down = circuit.pin_load(v);
    for (NodeId child : circuit.outputs(v)) {
      if (child != sink) down += load_in[static_cast<std::size_t>(child)];
    }
    if (circuit.kind(v) == NodeKind::kWire) {
      const double half = 0.5 * (circuit.unit_cap(v) * x[i] + circuit.fringe_cap(v));
      double coupled = 0.0;
      for (const auto& nb : coupling.neighbors(v)) {
        coupled += nb.c_tilde;
      }
      double own = 0.0;
      double other = 0.0;
      for (const auto& nb : coupling.neighbors(v)) {
        own += nb.c_hat * x[i];
        other += nb.c_hat * x[static_cast<std::size_t>(nb.other)];
      }
      cap_delay[i] = half + coupled + own + other + down;
      load_in[i] = half + (half + down);
      if (mode == lrsizer::timing::CouplingLoadMode::kPropagateUpstream) {
        load_in[i] += coupled + own + other;
      }
    } else {
      cap_delay[i] = down;
      load_in[i] = circuit.kind(v) == NodeKind::kGate ? circuit.unit_cap(v) * x[i] : 0.0;
    }
  }
  std::vector<double> arrival(n, 0.0);
  for (NodeId v = 1; v < sink; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const double r = circuit.kind(v) == NodeKind::kDriver ? circuit.unit_res(v)
                                                          : circuit.unit_res(v) / x[i];
    double latest = 0.0;
    for (NodeId p : circuit.inputs(v)) {
      latest = std::max(latest, arrival[static_cast<std::size_t>(p)]);
    }
    arrival[i] = latest + r * cap_delay[i];
  }
  double delay = 0.0;
  for (NodeId p : circuit.inputs(sink)) {
    delay = std::max(delay, arrival[static_cast<std::size_t>(p)]);
  }
  return delay;
}

double pair_noise(const lrsizer::layout::CouplingSet& coupling, std::int32_t p,
                  const std::vector<double>& x) {
  const auto& pr = coupling.pairs()[static_cast<std::size_t>(p)];
  return pr.miller * pr.geom.c_hat() *
         (x[static_cast<std::size_t>(pr.a)] + x[static_cast<std::size_t>(pr.b)]);
}

}  // namespace

CheckedMetrics evaluate(const Circuit& circuit,
                        const lrsizer::layout::CouplingSet& coupling,
                        const std::vector<double>& x,
                        lrsizer::timing::CouplingLoadMode mode) {
  CheckedMetrics m;
  for (NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    const double xv = x[static_cast<std::size_t>(v)];
    m.area_um2 += circuit.area_weight(v) * xv;
    m.cap_f += circuit.unit_cap(v) * xv + circuit.fringe_cap(v);
  }
  const auto num_pairs = static_cast<std::int32_t>(coupling.pairs().size());
  for (std::int32_t p = 0; p < num_pairs; ++p) m.noise_f += pair_noise(coupling, p, x);
  m.delay_s = elmore_delay(circuit, coupling, x, mode);
  return m;
}

std::string check_solution(const Circuit& circuit,
                           const lrsizer::layout::CouplingSet& coupling,
                           const std::vector<double>& x, const Problem& problem,
                           const Claimed& claimed) {
  constexpr double kRel = 1e-9;
  std::ostringstream err;
  err.precision(12);
  if (x.size() != static_cast<std::size_t>(circuit.num_nodes())) {
    err << "size vector has " << x.size() << " entries for " << circuit.num_nodes()
        << " nodes";
    return err.str();
  }
  for (NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    const double xv = x[static_cast<std::size_t>(v)];
    if (!(xv >= circuit.lower_bound(v) && xv <= circuit.upper_bound(v))) {
      err << "node " << v << " size " << xv << " outside [" << circuit.lower_bound(v)
          << ", " << circuit.upper_bound(v) << "]";
      return err.str();
    }
  }

  // The bounds: factors times the metrics at the initial uniform sizes.
  std::vector<double> x0(x.size(), 0.0);
  for (NodeId v = circuit.first_component(); v < circuit.end_component(); ++v) {
    x0[static_cast<std::size_t>(v)] = std::clamp(
        problem.initial_size, circuit.lower_bound(v), circuit.upper_bound(v));
  }
  const CheckedMetrics init = evaluate(circuit, coupling, x0, problem.mode);
  const double a0 = problem.factors.delay * init.delay_s;
  const double p0 = problem.factors.power * init.cap_f;
  const double n0 = init.noise_f > 0.0 ? problem.factors.noise * init.noise_f : 1.0;

  const CheckedMetrics fin = evaluate(circuit, coupling, x, problem.mode);
  const struct {
    const char* what;
    double mine;
    double theirs;
  } claims[] = {{"area", fin.area_um2, claimed.area_um2},
                {"delay", fin.delay_s, claimed.delay_s},
                {"cap", fin.cap_f, claimed.cap_f},
                {"noise", fin.noise_f, claimed.noise_f},
                {"A0", a0, claimed.bound_delay_s},
                {"P0", p0, claimed.bound_cap_f},
                {"X0", n0, claimed.bound_noise_f}};
  for (const auto& c : claims) {
    if (!close(c.mine, c.theirs, kRel)) {
      err << c.what << " recomputed " << c.mine << " but reported " << c.theirs;
      return err.str();
    }
  }

  const double slack = (1.0 + problem.feas_tol) * (1.0 + kRel);
  const struct {
    const char* what;
    double value;
    double bound;
  } limits[] = {{"delay", fin.delay_s, a0}, {"cap", fin.cap_f, p0}, {"noise", fin.noise_f, n0}};
  for (const auto& l : limits) {
    if (l.value > l.bound * slack) {
      err << l.what << " " << l.value << " exceeds its bound " << l.bound << " by "
          << (l.value / l.bound - 1.0) * 100.0 << "%";
      return err.str();
    }
  }
  if (problem.factors.per_net_noise > 0.0) {
    // Per-net bounds: each pair is owned by its smaller node.
    std::vector<double> owned0(x.size(), 0.0);
    std::vector<double> owned(x.size(), 0.0);
    const auto num_pairs = static_cast<std::int32_t>(coupling.pairs().size());
    for (std::int32_t p = 0; p < num_pairs; ++p) {
      const auto a = static_cast<std::size_t>(coupling.pairs()[static_cast<std::size_t>(p)].a);
      owned0[a] += pair_noise(coupling, p, x0);
      owned[a] += pair_noise(coupling, p, x);
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (owned0[i] <= 0.0) continue;
      const double bound = problem.factors.per_net_noise * owned0[i];
      if (owned[i] > bound * slack) {
        err << "net noise of node " << i << " " << owned[i] << " exceeds its bound "
            << bound;
        return err.str();
      }
    }
  }
  return {};
}

Problem problem_of(const lrsizer::core::FlowOptions& options) {
  return {options.initial_size, options.bound_factors, options.ogws.lrs.mode,
          options.ogws.feas_tol};
}

std::string check_flow(const lrsizer::core::FlowResult& flow,
                       const lrsizer::core::FlowOptions& options) {
  const Claimed claimed{flow.ogws.area,          flow.final_metrics.delay_s,
                        flow.final_metrics.cap_f, flow.final_metrics.noise_f,
                        flow.bounds.delay_s,      flow.bounds.cap_f,
                        flow.bounds.noise_f};
  return check_solution(flow.circuit, flow.coupling, flow.ogws.sizes, problem_of(options),
                        claimed);
}

}  // namespace perfbench
