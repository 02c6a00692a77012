// perfbench — the end-to-end benchmark of lrsizer (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git SHA]
//   perfbench --self-test
//
// A run prints a header line naming the host, the source revision and the
// workload seed, then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}} —
// the end-to-end metrics untraced, the per-layer metrics traced.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload large-cold|table1-batch|serve-eco --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--git SHA]\n"
               "       perfbench --self-test\n";
  std::exit(2);
}

std::uint64_t to_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage();
  return v;
}

void print_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  lrsizer::util::set_log_level(lrsizer::util::LogLevel::kWarn);
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = to_u64(value());
    } else if (arg == "--seconds") {
      args.seconds = static_cast<double>(to_u64(value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage();
      args.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      args.trace_out = value();
    } else if (arg == "--git") {
      args.git = value();
    } else if (arg == "--self-test") {
      return run_self_test();
    } else {
      usage();
    }
  }
  if (args.workload.empty() || !have_trace || args.seconds <= 0.0) usage();

  std::cout << "# perfbench host: cpu=\"" << cpu_model() << "\" nproc=" << nproc()
            << " git=" << args.git << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << std::endl;
  try {
    Report report;
    if (args.workload == "large-cold") {
      report = run_large_cold(args);
    } else if (args.workload == "table1-batch") {
      report = run_table1_batch(args);
    } else if (args.workload == "serve-eco") {
      report = run_serve_eco(args);
    } else {
      usage();
    }
    for (const Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) report.wrong("metric " + m.name + " is not finite");
    }
    print_json(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
