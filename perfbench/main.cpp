// Entry point of the repository benchmark. run.py builds this program and
// calls it with the workload, seed, duration, trace flag and the fixed
// workload parameters of params.json; the last line it prints is the
// JSON result.
#include <cstdio>
#include <exception>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  try {
    const perfbench::Args args(argc, argv);
    perfbench::Result result;
    if (args.workload == "train_ndsnn") {
      perfbench::train_ndsnn(args, result);
    } else if (args.workload == "infer_offline") {
      perfbench::infer_offline(args, result);
    } else if (args.workload == "serve_stream") {
      perfbench::serve_stream(args, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    return result.emit(args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
