// perfbench_runner: runs one benchmark workload and prints its result as
// the last line of standard output.
//
//   perfbench_runner --workload construct_heavy --seed 7 --seconds 40
//                    --trace 0 --out-dir DIR
//   perfbench_runner --workload served_mixed ... --port P --server-pid PID
//                    --state-dir DIR
//
// perfbench/run.py builds this runner and the server and passes these
// arguments; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--port") {
      args.port = static_cast<uint16_t>(std::atoi(value));
    } else if (flag == "--server-pid") {
      args.server_pid = std::atoi(value);
    } else if (flag == "--state-dir") {
      args.state_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.out_dir.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "--out-dir and a positive --seconds are required\n");
    return 2;
  }
  if (args.workload == "construct_heavy") {
    return perfbench::RunInProcess(args);
  }
  if (args.workload == "served_mixed") {
    if (args.port == 0 || args.server_pid == 0) {
      std::fprintf(stderr, "served_mixed needs --port and --server-pid\n");
      return 2;
    }
    return perfbench::RunServed(args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
