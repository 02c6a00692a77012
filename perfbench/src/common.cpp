#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace perfbench {

void Report::wrong(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: incorrect output: " << why << "\n";
}

void Report::failed_op(const std::string& what, const std::string& why) {
  ++failed;
  std::cerr << "perfbench: failed operation " << what << ": " << why << "\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PerRound::quantile(double q) const {
  std::vector<double> per_round;
  for (const auto& round : rounds_) per_round.push_back(perfbench::quantile(round, q));
  return perfbench::median(std::move(per_round));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

using lrsizer::netlist::LogicOp;

LogicOp complement(LogicOp op) {
  switch (op) {
    case LogicOp::kAnd: return LogicOp::kNand;
    case LogicOp::kNand: return LogicOp::kAnd;
    case LogicOp::kOr: return LogicOp::kNor;
    case LogicOp::kNor: return LogicOp::kOr;
    case LogicOp::kXor: return LogicOp::kXnor;
    case LogicOp::kXnor: return LogicOp::kXor;
    case LogicOp::kBuf: return LogicOp::kNot;
    case LogicOp::kNot: return LogicOp::kBuf;
    case LogicOp::kInput: return LogicOp::kInput;
  }
  return op;
}

}  // namespace

lrsizer::netlist::LogicNetlist flip_one_gate(const lrsizer::netlist::LogicNetlist& base,
                                             std::uint64_t salt) {
  std::vector<std::int32_t> candidates;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    if (base.gate(g).op != LogicOp::kInput) candidates.push_back(g);
  }
  if (candidates.empty()) throw std::runtime_error("no logic gate to edit");
  Rng rng(salt);
  const std::int32_t edited =
      candidates[static_cast<std::size_t>(rng.below(candidates.size()))];
  lrsizer::netlist::LogicNetlist revised;
  for (std::int32_t g = 0; g < base.num_gates_logic(); ++g) {
    const auto& gate = base.gate(g);
    if (gate.op == LogicOp::kInput) {
      revised.add_input(gate.name);
    } else {
      revised.add_gate(gate.name, g == edited ? complement(gate.op) : gate.op, gate.fanin);
    }
  }
  for (std::int32_t g : base.primary_outputs()) revised.mark_output(g);
  revised.finalize();
  return revised;
}

std::int64_t SpanLog::open(const std::string& name, std::int64_t job, std::int64_t parent) {
  const double now = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, job, parent, now, now});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t span) {
  const double now = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_s = now;
}

std::int64_t SpanLog::add(const std::string& name, std::int64_t job, std::int64_t parent,
                          double start_s, double end_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, job, parent, start_s, end_s});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans()) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double SpanLog::self_seconds(const std::string& name) const {
  const auto all = spans();
  std::vector<double> child_time(all.size(), 0.0);
  for (const auto& s : all) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  double total = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == name) total += std::max(0.0, all[i].seconds() - child_time[i]);
  }
  return total;
}

std::vector<std::string> SpanLog::names() const {
  std::vector<std::string> out;
  for (const auto& s : spans()) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) out.push_back(s.name);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  out << "[\n";
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"job\": " << s.job
        << ", \"parent\": " << s.parent << ", \"start_s\": " << s.start_s
        << ", \"end_s\": " << s.end_s << "}" << (i + 1 < all.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
