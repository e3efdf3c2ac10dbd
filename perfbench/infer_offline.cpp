// infer_offline: one caller, closed loop, CompiledNetwork::run on
// batches of held-out images against the trained fixture. No queue, no
// executor: conv and LIF kernels do the work, so kernel and
// activation-path changes move this workload and serving changes do not.
#include <cstdio>
#include <map>

#include "plan_walk.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ndsnn::runtime::CompiledNetwork;

struct Loop {
  Samples batch_ms;
  /// Call times of each batch of the pool, by pool index.
  std::vector<Samples> per_batch;

  /// The pool's rows over the sum of each batch's fastest call. The host's
  /// other tenants slow some calls by up to a half, and the share of slow
  /// calls changes from run to run; a batch's fastest of its many calls
  /// moves least with them, and summing over the whole pool keeps every
  /// input's cost in the figure.
  [[nodiscard]] double samples_per_s(const std::vector<Tensor>& in) const {
    double ms = 0.0;
    int64_t rows = 0;
    for (std::size_t k = 0; k < in.size(); ++k) {
      ms += per_batch[k].percentile(0);
      rows += in[k].dim(0);
    }
    return 1e3 * static_cast<double>(rows) / ms;
  }
};

// Closed loop until `until`: each output is checked bitwise against
// SpikingNetwork::predict on the same batch (outside the timed call).
Loop closed_loop(const CompiledNetwork& plan, const std::vector<Tensor>& in, const std::vector<Tensor>& ref,
                 Clock::time_point until, Checks& checks, Result& result) {
  Loop loop;
  loop.per_batch.resize(in.size());
  for (std::size_t i = 0; i < in.size() || Clock::now() < until; ++i) {  // at least one pass
    const std::size_t k = i % in.size();
    const auto t0 = Clock::now();
    Tensor y = plan.run(in[k]);
    const double ms = ms_since(t0);
    loop.batch_ms.add(ms);
    loop.per_batch[k].add(ms);
    result.attempted(1);
    checks.same("compiled_vs_predict", ref[k], std::move(y));
  }
  return loop;
}

}  // namespace

void infer_offline(const Args& args, Result& result) {
  Checks checks(result, args.perturb);
  const int64_t setups = args.integer("fixture.setups");
  std::vector<double> setup_ms, compile_ms;
  std::vector<uint64_t> digests;
  ServedFixture sf;
  for (int64_t s = 0; s < setups; ++s) {
    sf = {};  // the previous set-up is torn down before the next is timed
    const auto t0 = Clock::now();
    sf = make_served(args);
    setup_ms.push_back(ms_since(t0));
    compile_ms.push_back(sf.compile_ms);
    digests.push_back(sf.fx->weights_digest);
  }
  const CompiledNetwork& plan = *sf.plan;

  const std::vector<Tensor> in = held_out(
      *sf.fx, args.seed, args.integer("infer_offline.pool_batches"), args.integer("infer_offline.batch"));
  describe_fixture(sf, digests, in, checks, result);
  std::vector<Tensor> ref;
  for (const Tensor& b : in) ref.push_back(sf.fx->exp.network->predict(b));

  // Warm-up: one pass over the pool (checked, not timed).
  for (std::size_t k = 0; k < in.size(); ++k) {
    checks.same("compiled_vs_predict", ref[k], plan.run(in[k]));
  }

  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const auto start = Clock::now();
  const Loop loop = closed_loop(
      plan, in, ref, start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(measure_s)),
      checks, result);
  const double per_s = loop.samples_per_s(in);
  const auto n = static_cast<int64_t>(loop.batch_ms.size());
  result.info("infer_samples_per_s", per_s, "samples/s", n);
  result.info("infer_batch_p50_ms", loop.batch_ms.percentile(50), "ms", n);
  result.info("infer_batch_p99_ms", loop.batch_ms.percentile(99), "ms", n);

  if (!args.trace) {
    common_e2e(result, setup_ms);
    result.e2e("throughput_per_s", per_s, "1/s");
    result.e2e("latency_ms", loop.batch_ms.percentile(90), "ms");
    return;
  }

  // Traced half: the same loop, op by op through PlanWalker with a span
  // per call; every traced output must equal the untraced one.
  Tracer tracer;
  PlanWalker walker(plan);
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(measure_s));
  std::size_t i = 0;
  Samples traced_ms;
  while (Clock::now() < until) {
    const std::size_t k = i++ % in.size();
    const uint64_t req = i;
    Tensor y;
    {
      auto span = tracer.span("infer.batch_ms", 0, req);
      y = walker.run(in[k], &tracer, span.id(), req);
      traced_ms.add(span.end());
    }
    result.attempted(1);
    checks.same("traced_vs_untraced", ref[k], std::move(y));
  }
  const double walks = static_cast<double>(walker.walks());
  double accounted = tracer.total_ms("runtime.encode_ms") + tracer.total_ms("runtime.readout_ms");
  double weight_ms = 0.0;
  // Per-type sums keep their names when a plan change shifts op indices.
  std::map<std::string, double> type_ms;
  for (std::size_t op = 0; op < walker.ops(); ++op) {
    const double ms = tracer.total_ms(walker.op_metric(op));
    accounted += ms;
    if (walker.is_weight_op(op)) weight_ms += ms;
    type_ms[walker.type(op)] += ms;
    result.layer(walker.op_metric(op), ms / walks, "ms");
    if (walker.is_lif(op)) {
      char name[64];
      std::snprintf(name, sizeof name, "runtime.lif%02zu.rate", op);
      result.layer(name, walker.out_rate(op), "ratio");
    }
  }
  for (const auto& [type, ms] : type_ms) result.layer("runtime." + type + "_ms", ms / walks, "ms");
  const double untraced = loop.batch_ms.mean();
  result.layer("runtime.compile_ms", median(compile_ms), "ms");
  result.layer("runtime.encode_ms", tracer.total_ms("runtime.encode_ms") / walks, "ms");
  result.layer("runtime.readout_ms", tracer.total_ms("runtime.readout_ms") / walks, "ms");
  result.layer("runtime.plan_bytes", static_cast<double>(plan.stored_bytes()), "bytes");
  result.layer("runtime.effective_mmac", walker.effective_macs_per_batch() / 1e6, "MMAC");
  result.layer("runtime.attained_gmac_s",
               walker.effective_macs_per_batch() * walks / (weight_ms * 1e-3) / 1e9, "GMAC/s");
  result.layer("trace.overhead_pct", 100.0 * (traced_ms.mean() - untraced) / untraced, "%");
  result.layer("trace.unaccounted_pct", 100.0 * (untraced - accounted / walks) / untraced, "%");
  result.note("accounting: untraced batch " + std::to_string(untraced) +
              " ms; encode + ops + readout self times " + std::to_string(accounted / walks) +
              " ms per batch (" + std::to_string(tracer.spans()) + " spans)");
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
