// The benchmark runner: one workload per process, one closed-loop client.
//
//   perfbench --workload <soap_bulk|xmark_shard|update_2pc> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one JSON object as the last line of standard output: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 on a usage error or when the fleet cannot be built.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 1;
    }
  }
  if (argc % 2 != 1 || options.seconds < 1) {
    std::fprintf(stderr,
                 "perfbench: flags take one value each; --seconds >= 1\n");
    return 1;
  }
  auto workload = perfbench::MakeWorkload(workload_name, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload_name.c_str());
    return 1;
  }
  perfbench::RunResult result = perfbench::RunWorkload(workload.get(), options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  if (result.metrics.empty()) return 1;  // a fleet could not be built
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
