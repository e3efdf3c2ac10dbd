#include "plan_walk.hpp"

#include <cstdio>

#include "nn/loss.hpp"
#include "snn/encoder.hpp"

namespace perfbench {

namespace {

int64_t nonzeros(const Tensor& t) {
  const float* p = t.data();
  int64_t n = 0;
  for (int64_t i = 0; i < t.numel(); ++i) n += p[i] != 0.0F ? 1 : 0;
  return n;
}

}  // namespace

PlanWalker::PlanWalker(const ndsnn::runtime::CompiledNetwork& net) : net_(net) {
  for (const auto& r : net.plan()) types_.push_back(layer_type(r.layer));
  out_nonzero_.assign(types_.size(), 0.0);
  out_elems_.assign(types_.size(), 0.0);
}

std::string PlanWalker::op_metric(std::size_t i) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "runtime.op%02zu.%s_ms", i, types_[i].c_str());
  return buf;
}

bool PlanWalker::is_weight_op(std::size_t i) const { return net_.plan()[i].weights > 0; }

double PlanWalker::out_rate(std::size_t i) const {
  return out_elems_[i] > 0.0 ? out_nonzero_[i] / out_elems_[i] : 0.0;
}

double PlanWalker::effective_macs_per_batch() const {
  return walks_ > 0 ? effective_macs_ / static_cast<double>(walks_) : 0.0;
}

Tensor PlanWalker::run(const Tensor& batch, Tracer* tracer, uint64_t parent, uint64_t req) {
  const auto& plan = net_.plan_ir();
  ndsnn::snn::DirectEncoder encoder;
  if (tracer == nullptr) {
    ndsnn::runtime::Activation x(encoder.encode(batch, plan.timesteps));
    for (const auto& op : plan.ops) x = op->run(x);
    return ndsnn::nn::mean_over_time(x.tensor, plan.timesteps);
  }

  ndsnn::runtime::Activation x;
  {
    auto s = tracer->span("runtime.encode_ms", parent, req);
    x = ndsnn::runtime::Activation(encoder.encode(batch, plan.timesteps));
  }
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    ndsnn::runtime::Activation y;
    {
      auto s = tracer->span(op_metric(i), parent, req);
      y = plan.ops[i]->run(x);
    }
    // Observations happen outside the op's span.
    const auto& r = plan.reports[i];
    if (r.weights > 0) {
      const Tensor& out = y.tensor;
      const int64_t rows = out.dim(0);
      const int64_t channels = out.rank() >= 2 ? out.dim(1) : 1;
      const double spatial = static_cast<double>(out.numel()) / static_cast<double>(rows * channels);
      const double in_rate =
          static_cast<double>(nonzeros(x.tensor)) / static_cast<double>(x.tensor.numel());
      effective_macs_ += static_cast<double>(r.weights) * spatial * static_cast<double>(rows) *
                         (1.0 - r.sparsity) * in_rate;
    }
    out_nonzero_[i] += static_cast<double>(nonzeros(y.tensor));
    out_elems_[i] += static_cast<double>(y.tensor.numel());
    x = std::move(y);
  }
  ++walks_;
  auto s = tracer->span("runtime.readout_ms", parent, req);
  return ndsnn::nn::mean_over_time(x.tensor, plan.timesteps);
}

}  // namespace perfbench
