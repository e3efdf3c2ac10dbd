// Op-by-op execution of a compiled plan, timed from outside.
//
// CompiledNetwork::run is: direct-encode the batch over the plan's
// timesteps, run every op of plan_ir().ops in order, average the logits
// over time. PlanWalker makes exactly those public calls itself, one op
// at a time, so each op can carry a span and its input/output firing
// rates can be observed. The result must equal run() bitwise (checked by
// the infer_offline workload).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/compiled_network.hpp"

namespace perfbench {

class PlanWalker {
 public:
  explicit PlanWalker(const ndsnn::runtime::CompiledNetwork& net);

  /// Mean logits for `batch`, like CompiledNetwork::run. With a tracer,
  /// every call gets a span under `parent` (encode, each op, readout) and
  /// the per-op observations below accumulate.
  [[nodiscard]] Tensor run(const Tensor& batch, Tracer* tracer = nullptr, uint64_t parent = 0,
                           uint64_t req = 0);

  /// "runtime.opNN.<layer type>_ms" for op i (the source layer's type, not
  /// its kernel, so a kernel change keeps the name).
  [[nodiscard]] std::string op_metric(std::size_t i) const;
  [[nodiscard]] std::size_t ops() const { return types_.size(); }
  /// Source layer type of op i ("conv2d", "bn", "lif", ...).
  [[nodiscard]] const std::string& type(std::size_t i) const { return types_[i]; }
  [[nodiscard]] bool is_lif(std::size_t i) const { return types_[i] == "lif"; }
  /// Observed output firing rate of op i over every traced walk.
  [[nodiscard]] double out_rate(std::size_t i) const;
  /// Effective multiply-accumulates per walked batch: over weight ops,
  /// dense MACs x weight density x observed input nonzero fraction (the
  /// core::FlopsModel terms, computed rather than measured).
  [[nodiscard]] double effective_macs_per_batch() const;
  [[nodiscard]] int64_t walks() const { return walks_; }
  /// True for ops that carry weights (conv and linear).
  [[nodiscard]] bool is_weight_op(std::size_t i) const;

 private:
  const ndsnn::runtime::CompiledNetwork& net_;
  std::vector<std::string> types_;
  std::vector<double> out_nonzero_, out_elems_;
  double effective_macs_ = 0.0;
  int64_t walks_ = 0;
};

}  // namespace perfbench
