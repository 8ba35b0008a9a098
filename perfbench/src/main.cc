// End-to-end benchmark driver:
//   perfbench --workload <index_converge|match_stream|durable_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--data-dir <dir>]
// Prints one metadata line and, last, one result line of JSON. --trace 0
// reports the end-to-end metrics; --trace 1 runs the same workload twice
// (untraced, then with spans and the engine flight recorder on) and
// reports the per-layer metrics. A run that produced a result exits 0 and
// reports its correctness in the result line; bad arguments exit 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/alloc_hook.h"

ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<index_converge|match_stream|durable_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--data-dir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--data-dir" && has_value) {
      args.data_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument: " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (!perfbench::MakeDirs(args.data_dir)) {
    return Usage(("cannot create data dir " + args.data_dir).c_str());
  }

  perfbench::Result r;
  if (args.workload == "index_converge") {
    r = perfbench::RunIndexConverge(args);
  } else if (args.workload == "match_stream") {
    r = perfbench::RunMatchStream(args);
  } else if (args.workload == "durable_churn") {
    r = perfbench::RunDurableChurn(args);
  } else {
    return Usage(("unknown workload: " + args.workload).c_str());
  }
  r.MetaStr("workload", args.workload);
  r.MetaNum("seed", static_cast<double>(args.seed));
  r.MetaNum("seconds", args.seconds);
  r.MetaNum("trace", args.trace ? 1 : 0);
  r.MetaNum("smoke", args.smoke ? 1 : 0);
  r.MetaNum("nproc", perfbench::HostCpus());
  r.MetaStr("build_type", PERFBENCH_BUILD_TYPE);
  r.MetaNum("failed_share", r.attempted == 0 ? 1.0
                                             : static_cast<double>(r.failed) /
                                                   static_cast<double>(r.attempted));
  perfbench::Emit(r, args.trace);
  return 0;
}
