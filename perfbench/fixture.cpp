#include <cstdio>

#include "plan_walk.hpp"
#include "workloads.hpp"

namespace perfbench {

ServedFixture make_served(const Args& args) {
  ServedFixture sf;
  sf.fx = train_fixture(args);
  const auto t0 = Clock::now();
  sf.plan = std::make_unique<ndsnn::runtime::CompiledNetwork>(
      ndsnn::runtime::CompiledNetwork::compile(*sf.fx->exp.network));
  sf.compile_ms = ms_since(t0);
  return sf;
}

void describe_fixture(const ServedFixture& sf, const std::vector<uint64_t>& digests,
                      const std::vector<Tensor>& probe, Checks& checks, Result& result) {
  for (const uint64_t d : digests) checks.same_digest("fixture_repeatable", digests.front(), d);
  char line[256];
  std::snprintf(line, sizeof line,
                "fixture: weights digest %s, test acc %.2f%%, sparsity %.4f, %zu set-ups",
                hex(sf.fx->weights_digest).c_str(), sf.fx->trained.final_test_acc,
                sf.fx->trained.final_sparsity, digests.size());
  result.note(line);
  Tracer scratch;
  PlanWalker walker(*sf.plan);
  uint64_t inputs = 1469598103934665603ULL;
  for (const Tensor& b : probe) {
    inputs = digest(b, inputs);
    (void)walker.run(b, &scratch);
  }
  std::string rates = "fixture: inputs digest " + hex(inputs) + ", per-LIF firing rates";
  for (std::size_t op = 0; op < walker.ops(); ++op) {
    if (!walker.is_lif(op)) continue;
    std::snprintf(line, sizeof line, " op%02zu=%.4f", op, walker.out_rate(op));
    rates += line;
  }
  result.note(rates);
}

void common_e2e(Result& result, const std::vector<double>& setup_ms) {
  result.e2e("setup_s", median(setup_ms) / 1e3, "s");
  result.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  result.info("setup_s", median(setup_ms) / 1e3, "s", static_cast<int64_t>(setup_ms.size()));
  result.info("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
