// The benchmark runner: runs one named workload for a timed window, checks
// every output, and prints the metrics as the last line of standard output.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--toy] [--trace-out PATH] [--git-sha SHA]
//
// Exit status: 0 when every check passed and no operation failed; 1 when a
// run completed but something was wrong (the report still prints); 2 for
// a usage error (nothing prints).
#include <cstdlib>
#include <iostream>
#include <string>

#include "crypto/hash_backend.h"
#include "report.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options,
           std::string& git_sha) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  if (!parse(argc, argv, options, git_sha)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--toy] [--trace-out PATH] "
                 "[--git-sha SHA]\n";
    return 2;
  }
  const bool daemon = options.workload == "daemon-mixed";
  if (!daemon && options.workload != "sim-alg5-n6400" &&
      options.workload != "sim-phase-king-pooled") {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }

  perfbench::Report report;
  report.meta("workload", options.workload);
  report.meta("seed", std::to_string(options.seed));
  report.meta("seconds", std::to_string(options.seconds));
  report.meta("trace", options.trace ? "1" : "0");
  report.meta("toy", options.toy ? "1" : "0");
  report.meta("nproc", std::to_string(perfbench::online_cores()));
  report.meta("hash_backend", dr::crypto::hash_backend().name);
  report.meta("git_sha", git_sha);

  if (daemon) {
    perfbench::run_daemon_workload(options, report);
  } else {
    perfbench::run_sim_workload(options, report);
  }
  report.finish(options.trace);
  std::cout << report.meta_json() << "\n" << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
