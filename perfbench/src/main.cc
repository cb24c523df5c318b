// perfbench: the repository benchmark.
//
//   perfbench --workload <varlen_open|offline_long|conversation|capacity>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//
// The workload parameters are constants in harness.h.
//
// Prints human-readable report lines, then, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using perfbench::Options;

Options parse(int argc, char** argv) {
  Options o;
  o.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::stoull(v);
    else if (key == "--seconds") o.seconds = std::stod(v);
    else if (key == "--trace") o.trace = v != "0";
    else if (key == "--spans") o.spans_path = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (o.seconds <= 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return o;
}

// The emitted metric names must be exactly the table for the mode.
bool matches_table(const perfbench::MetricSet& m, bool trace) {
  const auto& defs = trace ? perfbench::per_layer_metrics()
                           : perfbench::end_to_end_metrics();
  if (m.items().size() != defs.size()) return false;
  for (const auto& d : defs) {
    if (!m.has(d.name)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    perfbench::Outcome out;
    if (opt.workload == "varlen_open") {
      out = perfbench::run_varlen_open(opt);
    } else if (opt.workload == "offline_long") {
      out = perfbench::run_offline_long(opt);
    } else if (opt.workload == "conversation") {
      out = perfbench::run_conversation(opt);
    } else if (opt.workload == "capacity") {
      out = perfbench::run_open_capacity(opt);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    std::cout << "# " << opt.workload << " seed " << opt.seed << ", "
              << opt.seconds << " s, trace " << (opt.trace ? 1 : 0) << ", "
              << opt.threads << " compute threads\n";
    for (const std::string& line : out.report) std::cout << "# " << line << '\n';
    for (const auto& [name, metric] : out.metrics.items()) {
      std::cout << "# " << name << " = " << metric.value << ' ' << metric.unit
                << '\n';
    }
    if (opt.workload != "capacity" && !matches_table(out.metrics, opt.trace)) {
      std::cerr << "perfbench: emitted metrics do not match the metric table\n";
      return 3;
    }
    std::cout << perfbench::result_json(out.failed == 0, out.attempted,
                                        out.failed, out.metrics)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
