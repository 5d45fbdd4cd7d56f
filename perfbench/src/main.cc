// perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                  --tool PATH --out-dir DIR
// perfbench_driver --list-metrics
//
// Runs one workload and prints its result as the last line of stdout (see
// README.md). Exits nonzero, printing no result, when the run cannot be
// completed.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --tool PATH --out-dir DIR | --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("%s\n", MetricTableJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--tool") {
      opts.tool = value;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage();
    }
  }
  const auto& names = Workloads();
  if (std::find(names.begin(), names.end(), workload) == names.end() ||
      !have_seed || opts.seconds <= 0.0 ||
      opts.out_dir.empty() || opts.tool.empty()) {
    return Usage();
  }
  ::mkdir(opts.out_dir.c_str(), 0755);
  Report report(opts.trace);
  try {
    if (workload == "scan_50k_unique") {
      RunScan50kUnique(opts, &report);
    } else if (workload == "cache_zipf_churn") {
      RunCacheZipfChurn(opts, &report);
    } else {
      RunBuildReindex(opts, &report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  return report.Print() ? 0 : 1;
}
