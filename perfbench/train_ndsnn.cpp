// train_ndsnn: NDSNN dense-to-sparse drop-and-grow training from scratch
// to the final sparsity. The loop replays core::Trainer::run from its
// public calls (DataLoader::next, augment_batch, Sgd::zero_grad/step,
// SpikingNetwork::train_step, before_step/after_step, eval_step), so each
// call can be timed from outside. It is the only workload where data, nn
// backward, opt and core run; runtime and serve stay untouched.
//
// The traced run replaces train_step by the same computation made layer
// by layer through Sequential::layer(i), so each layer's forward and
// backward get a span; its per-iteration losses must equal train_step's
// bitwise, and its epoch losses and accuracy must equal Trainer::run's.
#include <algorithm>
#include <cstdio>

#include "core/flops_model.hpp"
#include "data/augment.hpp"
#include "data/dataloader.hpp"
#include "nn/loss.hpp"
#include "opt/lr_scheduler.hpp"
#include "opt/sgd.hpp"
#include "snn/encoder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ndsnn::core::Experiment;

struct TrainRun {
  Samples iter_ms;                  ///< one whole iteration (eval excluded)
  std::vector<double> losses;       ///< per iteration
  std::vector<double> epoch_loss;   ///< mean per epoch, as Trainer::run computes it
  std::vector<double> epoch_step_ms;
  Samples iter_per_s;               ///< training samples per second, per iteration
  std::vector<double> epoch_density, epoch_rate;
  double test_acc = 0.0;
  double sparsity = 0.0;
  uint64_t digest = 0;
};

// SpikingNetwork::train_step, one layer at a time (nn/network.cpp).
ndsnn::nn::StepResult replay_train_step(ndsnn::nn::SpikingNetwork& net, const Tensor& batch,
                                        const std::vector<int64_t>& labels, Tracer& tr,
                                        uint64_t req) {
  auto& body = net.body();
  const int64_t steps = net.timesteps();
  ndsnn::nn::LossResult lr;
  {
    auto fwd = tr.span("nn.forward_ms", 0, req);
    body.reset_state();
    ndsnn::snn::DirectEncoder encoder;
    Tensor x = encoder.encode(batch, steps);
    for (std::size_t i = 0; i < body.size(); ++i) {
      auto s = tr.span("nn." + layer_type(body.layer(i).name()) + ".forward_ms", fwd.id(), req);
      x = body.layer(i).forward(x, /*training=*/true);
    }
    const Tensor mean_logits = ndsnn::nn::mean_over_time(x, steps);
    lr = ndsnn::nn::CrossEntropyLoss().compute(mean_logits, labels);
  }
  {
    auto bwd = tr.span("nn.backward_ms", 0, req);
    Tensor g = ndsnn::nn::broadcast_over_time(lr.grad_logits, steps);
    for (std::size_t i = body.size(); i-- > 0;) {
      auto s = tr.span("nn." + layer_type(body.layer(i).name()) + ".backward_ms", bwd.id(), req);
      g = body.layer(i).backward(g);
    }
  }
  ndsnn::nn::StepResult r;
  r.loss = lr.loss;
  r.correct = lr.correct;
  r.batch = batch.dim(0);
  r.spike_rate = std::max(0.0, body.last_spike_rate());
  return r;
}

// Trainer::run (core/trainer.cpp) from its public calls. With a tracer,
// every call is a span and train_step is replayed layer by layer.
TrainRun train_once(Experiment& exp, Tracer* tr) {
  auto& net = *exp.network;
  auto& method = *exp.method;
  const auto& cfg = exp.trainer;
  TrainRun run;
  ndsnn::tensor::Rng rng(cfg.seed);
  method.initialize(net.params(), rng);
  ndsnn::opt::SgdConfig sgd_config;
  sgd_config.learning_rate = cfg.learning_rate;
  sgd_config.momentum = cfg.momentum;
  sgd_config.weight_decay = cfg.weight_decay;
  ndsnn::opt::Sgd sgd(net.params(), sgd_config);
  ndsnn::opt::CosineLr cosine(cfg.learning_rate, cfg.epochs);
  ndsnn::data::DataLoader loader(*exp.train_set, cfg.batch_size, cfg.seed ^ 0xABCDULL);
  ndsnn::data::AugmentConfig aug;
  aug.crop_padding = std::max<int64_t>(1, exp.train_set->image_size() / 8);
  ndsnn::tensor::Rng aug_rng(cfg.seed ^ 0x5EEDULL);

  // In the traced run each call gets its own span; the untraced run only
  // reads the clock around the iteration and around train_step.
  auto timed = [tr](const char* name, uint64_t req, auto&& fn) {
    if (tr == nullptr) return fn();
    auto s = tr->span(name, 0, req);
    return fn();
  };

  int64_t iteration = 0;
  for (int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    method.on_epoch_begin(epoch);
    sgd.set_learning_rate(cfg.cosine_lr ? cosine.lr_at(epoch) : cfg.learning_rate);
    loader.start_epoch();
    double loss_acc = 0.0, spike_acc = 0.0, step_acc = 0.0;
    int64_t batches = 0;
    for (;;) {
      const uint64_t req = static_cast<uint64_t>(iteration) + 1;
      const auto t0 = Clock::now();
      auto batch = timed("data.next_ms", req, [&] { return loader.next(); });
      if (!batch) break;
      if (cfg.augment) {
        timed("data.augment_ms", req, [&] {
          ndsnn::data::augment_batch(batch->images, aug, aug_rng);
          return 0;
        });
      }
      timed("opt.zero_grad_ms", req, [&] {
        sgd.zero_grad();
        return 0;
      });
      const auto s0 = Clock::now();
      const ndsnn::nn::StepResult r =
          tr == nullptr ? net.train_step(batch->images, batch->labels)
                        : replay_train_step(net, batch->images, batch->labels, *tr, req);
      const double step = ms_since(s0);
      timed("core.before_step_ms", req, [&] {
        method.before_step(iteration);
        return 0;
      });
      timed("opt.step_ms", req, [&] {
        sgd.step();
        return 0;
      });
      timed("core.after_step_ms", req, [&] {
        method.after_step(iteration);
        return 0;
      });
      const double iter = ms_since(t0);
      run.iter_ms.add(iter);
      run.iter_per_s.add(1e3 * static_cast<double>(r.batch) / iter);
      run.losses.push_back(r.loss);
      ++iteration;
      loss_acc += r.loss;
      spike_acc += r.spike_rate;
      step_acc += step;
      ++batches;
    }
    // Trainer::evaluate.
    ndsnn::data::DataLoader test(*exp.test_set, cfg.batch_size, /*seed=*/1, /*shuffle=*/false);
    test.start_epoch();
    int64_t correct = 0, total = 0;
    while (auto b = test.next()) {
      const auto r = timed("nn.eval_ms", 0, [&] { return net.eval_step(b->images, b->labels); });
      correct += r.correct;
      total += r.batch;
    }
    run.test_acc = total > 0 ? 100.0 * static_cast<double>(correct) / static_cast<double>(total) : 0.0;
    const double n = static_cast<double>(std::max<int64_t>(batches, 1));
    run.epoch_loss.push_back(batches > 0 ? loss_acc / static_cast<double>(batches) : 0.0);
    run.epoch_step_ms.push_back(step_acc / n);
    run.epoch_density.push_back(1.0 - method.overall_sparsity());
    run.epoch_rate.push_back(spike_acc / n);
  }
  run.sparsity = method.overall_sparsity();
  run.digest = weights_digest(net);
  return run;
}

// The task (class prototypes) and the initial weights come from the fixed
// recipe seed; the workload seed picks the training samples and the
// trainer's shuffling, augmentation and initial masks. Training cost
// depends on the network's zeros (dense matmul skips them), so fixing the
// initial network keeps seeds comparable.
Experiment build(const Args& args) {
  Experiment exp = ndsnn::core::build_experiment(
      recipe(args, "train_ndsnn", static_cast<uint64_t>(args.integer("train_ndsnn.model_seed"))));
  ndsnn::data::SyntheticSpec spec = exp.train_set->spec();
  spec.sample_offset = static_cast<int64_t>(args.seed % 4096) * (int64_t{1} << 16) + (int64_t{1} << 32);
  exp.train_set = std::make_unique<ndsnn::data::SyntheticVision>(spec);
  exp.trainer.seed = args.seed;
  return exp;
}

}  // namespace

void train_ndsnn(const Args& args, Result& result) {
  Checks checks(result, args.perturb);
  // One build takes a few ms, too short to time alone on a shared host:
  // each set-up round times several builds and counts their mean.
  std::vector<double> setup_ms;
  Experiment exp;
  const int64_t builds = args.integer("train_ndsnn.builds_per_setup");
  for (int64_t s = 0; s < args.integer("train_ndsnn.setups"); ++s) {
    const auto t0 = Clock::now();
    for (int64_t b = 0; b < builds; ++b) {
      exp = {};
      exp = build(args);
    }
    setup_ms.push_back(ms_since(t0) / static_cast<double>(builds));
  }

  // Whole training runs until the time is up (at least one); the same
  // seed must train the same weights every time.
  const double target = args.num("model.sparsity");
  const double min_acc = args.num("train_ndsnn.min_test_acc_pct");
  const auto start = Clock::now();
  std::vector<TrainRun> runs;
  do {
    if (!runs.empty()) exp = build(args);
    runs.push_back(train_once(exp, nullptr));
    const TrainRun& r = runs.back();
    result.attempted(static_cast<int64_t>(r.losses.size()));
    checks.at_least("final_sparsity", target - 5e-3, r.sparsity);
    checks.at_least("test_accuracy_floor", min_acc, r.test_acc);
    checks.same_digest("train_repeatable", runs.front().digest, r.digest);
  } while (!args.trace && ms_since(start) < args.seconds * 1e3);

  // Throughput is the 90th percentile over iterations: the host's other
  // tenants slow some iterations by up to a third, and the share of slow
  // ones changes from run to run, so the fast iterations repeat best.
  Samples iter_ms, iter_per_s;
  for (const TrainRun& r : runs) {
    iter_ms.append(r.iter_ms);
    iter_per_s.append(r.iter_per_s);
  }
  const TrainRun& first = runs.front();
  const double per_s = iter_per_s.percentile(90);
  const auto n = static_cast<int64_t>(iter_ms.size());
  char line[256];
  std::snprintf(line, sizeof line, "trained: weights digest %s, %zu run(s) of %zu iterations",
                hex(first.digest).c_str(), runs.size(), first.losses.size());
  result.note(line);
  result.info("train_samples_per_s", per_s, "samples/s", n);
  result.info("train_test_acc_pct", first.test_acc, "%", 1);
  result.info("train_final_sparsity", first.sparsity, "ratio", 1);
  result.info("train_iter_p50_ms", iter_ms.percentile(50), "ms", n);
  result.info("train_iter_p90_ms", iter_ms.percentile(90), "ms", n);

  if (!args.trace) {
    common_e2e(result, setup_ms);
    result.e2e("throughput_per_s", per_s, "1/s");
    result.e2e("latency_ms", iter_ms.percentile(90), "ms");
    return;
  }

  // Traced run: the layer-by-layer replay must reproduce train_step's
  // losses bitwise, and the replay loop must reproduce Trainer::run.
  Tracer tracer;
  Experiment traced_exp = build(args);
  const TrainRun traced = train_once(traced_exp, &tracer);
  result.attempted(static_cast<int64_t>(traced.losses.size()));
  checks.same_value("replay_loss_count", static_cast<double>(first.losses.size()),
                    static_cast<double>(traced.losses.size()));
  for (std::size_t i = 0; i < std::min(first.losses.size(), traced.losses.size()); ++i) {
    checks.same_value("replay_vs_train_step", first.losses[i], traced.losses[i]);
  }
  checks.same_digest("traced_vs_untraced", first.digest, traced.digest);

  Experiment ref_exp = build(args);
  ndsnn::core::Trainer trainer(*ref_exp.network, *ref_exp.method, *ref_exp.train_set,
                               *ref_exp.test_set, ref_exp.trainer);
  const ndsnn::core::TrainResult reference = trainer.run();
  for (std::size_t e = 0; e < reference.epochs.size() && e < first.epoch_loss.size(); ++e) {
    checks.same_value("loop_vs_trainer_run", reference.epochs[e].train_loss, first.epoch_loss[e]);
  }
  checks.same_value("loop_vs_trainer_run", reference.final_test_acc, first.test_acc);

  const double iters = static_cast<double>(traced.losses.size());
  const char* per_iter[] = {"data.next_ms",        "data.augment_ms", "opt.zero_grad_ms",
                            "nn.forward_ms",       "nn.backward_ms",  "core.before_step_ms",
                            "opt.step_ms",         "core.after_step_ms"};
  double accounted = 0.0;
  for (const char* name : per_iter) {
    const double ms = tracer.total_ms(name) / iters;
    accounted += ms;
    result.layer(name, ms, "ms");
  }
  for (const char* type : {"conv2d", "bn", "lif", "pool", "flatten", "linear"}) {
    for (const char* dir : {"forward", "backward"}) {
      const std::string name = std::string("nn.") + type + "." + dir + "_ms";
      result.layer(name, tracer.total_ms(name) / iters, "ms");
    }
  }
  const auto epochs = static_cast<double>(traced.epoch_loss.size());
  result.layer("nn.eval_ms", tracer.total_ms("nn.eval_ms") / epochs, "ms");

  double density = 0.0, rate = 0.0;
  for (std::size_t e = 0; e < first.epoch_density.size(); ++e) {
    density += first.epoch_density[e] / epochs;
    rate += first.epoch_rate[e] / epochs;
  }
  result.layer("core.density_mean", density, "ratio");
  result.layer("core.spike_rate_mean", rate, "ratio");
  // Fig. 5 held against the wall clock: the modelled training cost
  // (FlopsModel: density x spike rate x dense MACs) of the last epoch over
  // the first, next to the measured train_step time ratio. The model is
  // probed on a separate copy of the network so the run is undisturbed.
  Experiment probe = build(args);
  const ndsnn::core::FlopsModel flops(*probe.network, probe.train_set->channels(),
                                      probe.train_set->image_size());
  const int64_t steps = probe.network->timesteps();
  const double modelled =
      flops.training_macs_per_sample(first.epoch_density.back(), first.epoch_rate.back(), steps) /
      flops.training_macs_per_sample(first.epoch_density.front(), first.epoch_rate.front(), steps);
  result.layer("core.modelled_cost_ratio", modelled, "ratio");
  result.layer("nn.realised_cost_ratio", first.epoch_step_ms.back() / first.epoch_step_ms.front(),
               "ratio");

  const double untraced = first.iter_ms.mean();
  result.layer("trace.overhead_pct", 100.0 * (traced.iter_ms.mean() - untraced) / untraced, "%");
  result.layer("trace.unaccounted_pct", 100.0 * (untraced - accounted) / untraced, "%");
  result.note("accounting: untraced iteration " + std::to_string(untraced) +
              " ms; next + augment + zero_grad + forward + backward + before + step + after = " +
              std::to_string(accounted) + " ms (" + std::to_string(tracer.spans()) + " spans)");
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
