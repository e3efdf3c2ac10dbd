// The benchmark's workloads. Each one sets up (several times, reporting
// the median), measures for args.seconds, checks its outputs, and fills
// `result` with end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See perfbench/README.md for what each one is for.
#pragma once

#include <memory>

#include "harness.hpp"
#include "runtime/compiled_network.hpp"

namespace perfbench {

void train_ndsnn(const Args& args, Result& result);
void infer_offline(const Args& args, Result& result);
void serve_stream(const Args& args, Result& result);

/// The trained fixture compiled with default CompileOptions.
struct ServedFixture {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<ndsnn::runtime::CompiledNetwork> plan;
  double compile_ms = 0.0;
};

/// Train the fixture and compile it (the shared part of every inference
/// workload's set-up).
[[nodiscard]] ServedFixture make_served(const Args& args);

/// After the timed set-ups: check that every set-up trained the same
/// weights, and print the digest, accuracy, sparsity and per-LIF firing
/// rates on `probe`, so two runs can be shown to have used the same
/// inputs.
void describe_fixture(const ServedFixture& sf, const std::vector<uint64_t>& digests,
                      const std::vector<Tensor>& probe, Checks& checks, Result& result);

/// End-to-end metrics every workload reports besides its own.
void common_e2e(Result& result, const std::vector<double>& setup_ms);

}  // namespace perfbench
