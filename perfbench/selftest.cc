// The benchmark's own test: a wrong expected value must be counted as a
// failure, once per op of the sabotaged kind, while the other kinds pass.
// Runs a one-second soap_bulk session; exits non-zero on a miss.
#include <algorithm>
#include <cstdio>

#include "bench.h"

int main() {
  perfbench::RunOptions options;
  options.seed = 7;
  options.seconds = 1;
  options.sabotage_kind = "rpc_loop";
  auto workload = perfbench::MakeSoapBulk(options.seed);
  const std::vector<int> round = workload->round();
  const int64_t rounds = workload->rounds_per_second() * options.seconds;
  const int64_t sabotaged =
      rounds * std::count(round.begin(), round.end(), 1);  // 1 = rpc_loop
  perfbench::RunResult result = perfbench::RunWorkload(workload.get(), options);

  bool ok = true;
  const int64_t ops = rounds * static_cast<int64_t>(round.size());
  if (result.attempted != ops) {
    std::fprintf(stderr, "attempted %lld, want %lld\n",
                 static_cast<long long>(result.attempted),
                 static_cast<long long>(ops));
    ok = false;
  }
  if (result.failed != sabotaged) {
    std::fprintf(stderr, "failed %lld, want %lld (one per rpc_loop op)\n",
                 static_cast<long long>(result.failed),
                 static_cast<long long>(sabotaged));
    ok = false;
  }
  if (result.correct) {
    std::fprintf(stderr, "a run with wrong results reported correct\n");
    ok = false;
  }
  std::printf("perfbench selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
