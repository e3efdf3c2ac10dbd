// serve_stream: the trained plan served by serve::Server over loopback
// TCP on four connections. Three connections each hold one wire-v2 stream
// session and step frames on a fixed per-session schedule, a fixed share
// of them silent (all-zero frames the delta path can skip); the fourth
// sends v1 one-shot requests at a fixed rate. It is the only workload
// where the server, the wire codecs, ModelRegistry and StreamSession run,
// and it uses the executor's per-session stream queues rather than its
// request bins, so a scheduling change that helps one-shots but costs
// streams shows here.
//
// Latency runs from each frame's (or request's) scheduled send time to
// the moment its response is read.
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "runtime/stream_session.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ndsnn::serve::ModelRegistry;
using ndsnn::serve::Server;
using ndsnn::serve::Status;

constexpr const char* kModel = "lenet5";

Clock::duration ms_dur(double ms) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(ms));
}

// Wait for a scheduled send time: sleep until shortly before it, then spin,
// so the generator's own wake-up lateness stays out of the latencies.
void pace_until(Clock::time_point sched) {
  std::this_thread::sleep_until(sched - std::chrono::milliseconds(1));
  while (Clock::now() < sched) {
  }
}

// Declaration order is teardown order in reverse: the server goes first,
// then the registry (and its executors), then the network it compiles.
struct Stack {
  ServedFixture sf;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;

  void reset() {
    server.reset();
    registry.reset();
    sf = {};
  }
};

Stack make_stack(const Args& args) {
  Stack st;
  st.sf = make_served(args);
  ndsnn::serve::RegistryOptions ro;
  ro.executor_threads = args.integer("serve_stream.workers");
  ro.executor.slo_ms = args.num("serve_stream.slo_ms");
  st.registry = std::make_unique<ModelRegistry>(ro);
  const ndsnn::nn::SpikingNetwork* net = st.sf.fx->exp.network.get();
  st.registry->add(kModel, [net](const ndsnn::runtime::CompileOptions& o) {
    return ndsnn::runtime::CompiledNetwork::compile(*net, o);
  });
  (void)st.registry->acquire(kModel);  // load now: part of set-up
  ndsnn::serve::ServerOptions so;
  so.default_model = kModel;
  st.server = std::make_unique<Server>(*st.registry, so);
  st.server->start();
  return st;
}

struct Session {
  std::vector<Tensor> frames;
  std::vector<Tensor> ref;  ///< direct StreamSession step logits
};

struct Pass {
  Samples step_ms, oneshot_ms, rtt_ms, lateness_ms, step_lateness_ms;
  std::vector<Samples> step_ms_by_s;  ///< step latencies by the second of their schedule
  int64_t steps = 0, step_late = 0, step_failed = 0;
  int64_t oneshots = 0, oneshot_late = 0, oneshot_failed = 0, oneshot_shed = 0;
  std::size_t request_bytes = 0, response_bytes = 0;
  std::string error;  ///< first exception a connection thread hit
  double elapsed_s = 0.0;  ///< start of the schedule to the last response
};

// One pass: three stream connections and one one-shot connection, each
// on its own thread, all paced from the same start instant.
Pass run_pass(const Args& args, uint16_t port, const std::vector<Session>& sessions,
              const std::vector<Tensor>& pool, const std::vector<Tensor>& pool_ref, double seconds,
              Tracer* tracer, Checks& checks) {
  const double period_ms = 1e3 / args.num("serve_stream.frames_per_s");
  const double stream_limit = args.num("serve_stream.stream_limit_ms");
  const double oneshot_limit = args.num("serve_stream.oneshot_limit_ms");
  const double oneshot_gap_ms = 1e3 / args.num("serve_stream.oneshot_rps");
  const auto frames = static_cast<std::size_t>(seconds * 1e3 / period_ms);
  const auto oneshots = static_cast<std::size_t>(seconds * 1e3 / oneshot_gap_ms);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::vector<Pass> per(sessions.size() + 1);
  std::mutex check_mu;  // Checks/Result are not thread-safe
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < sessions.size(); ++j) {
    threads.emplace_back([&, j] {
      Pass& p = per[j];
      try {
        const int fd = ndsnn::serve::connect_local(port);
        const auto opened = ndsnn::serve::stream_open(fd, kModel);
        if (opened.status != Status::kOk) {
          p.step_failed += static_cast<int64_t>(frames);
          ::close(fd);
          return;
        }
        // Sessions are staggered across one frame period.
        const Clock::time_point first =
            start + ms_dur(period_ms * static_cast<double>(j) / static_cast<double>(sessions.size()));
        for (std::size_t k = 0; k < frames && k < sessions[j].frames.size(); ++k) {
          const Clock::time_point sched = first + ms_dur(period_ms * static_cast<double>(k));
          pace_until(sched);
          const Clock::time_point sent = Clock::now();
          p.lateness_ms.add(ms_between(sched, sent));
          p.step_lateness_ms.add(ms_between(sched, sent));
          auto resp = ndsnn::serve::stream_step(fd, sessions[j].frames[k]);
          const Clock::time_point seen = Clock::now();
          ++p.steps;
          const double ms = ms_between(sched, seen);
          if (resp.status != Status::kOk) {
            ++p.step_failed;
            continue;
          }
          p.step_ms.add(ms);
          const auto second = static_cast<std::size_t>(ms_between(start, sched) / 1e3);
          if (p.step_ms_by_s.size() <= second) p.step_ms_by_s.resize(second + 1);
          p.step_ms_by_s[second].add(ms);
          if (ms > stream_limit) ++p.step_late;
          if (tracer != nullptr) {
            tracer->add("wire.stream_step_ms", sent, seen, 0, (uint64_t{j + 1} << 32) | k);
          }
          std::lock_guard<std::mutex> lk(check_mu);
          checks.same("stream_vs_direct_session", sessions[j].ref[k], std::move(resp.logits));
        }
        (void)ndsnn::serve::stream_close(fd);
        ::close(fd);
      } catch (const std::exception& e) {
        ++p.step_failed;
        p.error = e.what();
      }
    });
  }
  threads.emplace_back([&] {
    Pass& p = per.back();
    try {
      const int fd = ndsnn::serve::connect_local(port);
      for (std::size_t k = 0; k < oneshots; ++k) {
        const Clock::time_point sched = start + ms_dur(oneshot_gap_ms * static_cast<double>(k));
        pace_until(sched);
        const std::size_t input = k % pool.size();
        ndsnn::serve::RequestFrame req;
        req.model = kModel;
        req.batch = pool[input];
        const Clock::time_point sent = Clock::now();
        p.lateness_ms.add(ms_between(sched, sent));
        auto resp = ndsnn::serve::round_trip(fd, req);
        const Clock::time_point seen = Clock::now();
        ++p.oneshots;
        if (resp.status == Status::kShed) {
          ++p.oneshot_shed;
          continue;
        }
        if (resp.status != Status::kOk) {
          ++p.oneshot_failed;
          continue;
        }
        const double ms = ms_between(sched, seen);
        p.oneshot_ms.add(ms);
        p.rtt_ms.add(ms_between(sent, seen));
        if (ms > oneshot_limit) ++p.oneshot_late;
        if (k == 0) {
          p.request_bytes = ndsnn::serve::encode_request(req).size() + 8;  // + magic and length
          p.response_bytes = ndsnn::serve::encode_response(resp).size() + 8;
        }
        if (tracer != nullptr) tracer->add("wire.oneshot_ms", sent, seen, 0, k + 1);
        std::lock_guard<std::mutex> lk(check_mu);
        checks.same("serve_vs_direct", pool_ref[input], std::move(resp.logits));
      }
      ::close(fd);
    } catch (const std::exception& e) {
      ++p.oneshot_failed;
      p.error = e.what();
    }
  });
  for (auto& t : threads) t.join();

  Pass all;
  all.elapsed_s = ms_since(start) / 1e3;
  for (const Pass& p : per) {
    all.step_ms.append(p.step_ms);
    if (all.step_ms_by_s.size() < p.step_ms_by_s.size()) all.step_ms_by_s.resize(p.step_ms_by_s.size());
    for (std::size_t s = 0; s < p.step_ms_by_s.size(); ++s) all.step_ms_by_s[s].append(p.step_ms_by_s[s]);
    all.oneshot_ms.append(p.oneshot_ms);
    all.rtt_ms.append(p.rtt_ms);
    all.lateness_ms.append(p.lateness_ms);
    all.step_lateness_ms.append(p.step_lateness_ms);
    all.steps += p.steps;
    all.step_late += p.step_late;
    all.step_failed += p.step_failed;
    all.oneshots += p.oneshots;
    all.oneshot_late += p.oneshot_late;
    all.oneshot_failed += p.oneshot_failed;
    all.oneshot_shed += p.oneshot_shed;
    all.request_bytes = std::max(all.request_bytes, p.request_bytes);
    all.response_bytes = std::max(all.response_bytes, p.response_bytes);
    if (all.error.empty()) all.error = p.error;
  }
  return all;
}

// The median step latency of the calm seconds: each second of the pass
// gets its own median, and the figure is the 10th percentile of those. A
// step's latency is mostly thread wake-ups in the server and the client,
// and bursts of host stalls slow them by up to 10x for seconds to minutes;
// tail percentiles followed the bursts, even the p90 of the calmest
// seconds.
double step_latency_ms(const Pass& p) {
  Samples p50;
  for (const Samples& s : p.step_ms_by_s) {
    if (s.size() > 0) p50.add(s.percentile(50));
  }
  return p50.percentile(10);
}

double ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void serve_stream(const Args& args, Result& result) {
  Checks checks(result, args.perturb);
  std::vector<double> setup_ms, compile_ms;
  std::vector<uint64_t> digests;
  Stack st;
  for (int64_t s = 0; s < args.integer("fixture.setups"); ++s) {
    st.reset();
    const auto t0 = Clock::now();
    st = make_stack(args);
    setup_ms.push_back(ms_since(t0));
    compile_ms.push_back(st.sf.compile_ms);
    digests.push_back(st.sf.fx->weights_digest);
  }
  const ndsnn::runtime::CompiledNetwork& plan = *st.sf.plan;
  const uint16_t port = st.server->port();

  // Inputs: one-shot pool, and one frame sequence per stream session
  // (held-out images, one per frame, a fixed share replaced by silence).
  const std::vector<Tensor> pool =
      held_out(*st.sf.fx, args.seed, args.integer("serve_stream.pool_requests"),
               args.integer("serve_stream.oneshot_rows"));
  describe_fixture(st.sf, digests, pool, checks, result);
  std::vector<Tensor> pool_ref;
  Samples direct_ms;
  for (const Tensor& b : pool) {
    pool_ref.push_back(plan.run(b));
    for (int r = 0; r < 3; ++r) direct_ms.add(plan.infer({b}).latency_ms);
  }

  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const double warmup_s = args.num("serve_stream.warmup_s");
  const auto frames = static_cast<int64_t>(std::max(measure_s, warmup_s) *
                                           args.num("serve_stream.frames_per_s")) + 1;
  const double silent = args.num("serve_stream.silent_share");
  const auto n_sessions = static_cast<std::size_t>(args.integer("serve_stream.sessions"));
  std::vector<Session> sessions(n_sessions);
  ndsnn::tensor::Rng rng(args.seed ^ 0x57EA4ULL);
  Samples step_direct_ms;
  int64_t skipped = 0;
  const int64_t timesteps = plan.timesteps();
  for (std::size_t j = 0; j < n_sessions; ++j) {
    const std::vector<Tensor> imgs = held_out(*st.sf.fx, args.seed * 131 + j + 1, frames, 1);
    ndsnn::runtime::StreamSession direct(plan);
    for (int64_t k = 0; k < frames; ++k) {
      Tensor f = imgs[static_cast<std::size_t>(k)];
      if (rng.uniform01() < silent) f.zero();
      auto r = direct.step(f);
      step_direct_ms.add(r.latency_ms);
      skipped += r.skipped_ops;
      sessions[j].frames.push_back(std::move(f));
      sessions[j].ref.push_back(std::move(r.logits));
    }
    // The direct pass over the first window must equal the whole-window
    // pass of the plan (time-major concatenation of the frames).
    const Tensor& f0 = sessions[j].frames[0];
    std::vector<float> window;
    for (int64_t t = 0; t < timesteps; ++t) {
      const Tensor& f = sessions[j].frames[static_cast<std::size_t>(t)];
      window.insert(window.end(), f.data(), f.data() + f.numel());
    }
    std::vector<int64_t> dims = f0.shape().dims();
    dims[0] *= timesteps;
    const Tensor whole = plan.plan_ir().execute(Tensor(ndsnn::tensor::Shape(dims), window));
    const int64_t rows = f0.dim(0);
    const int64_t cols = whole.numel() / whole.dim(0);
    for (int64_t t = 0; t < timesteps; ++t) {
      Tensor slice(ndsnn::tensor::Shape{rows, cols},
                   std::vector<float>(whole.data() + t * rows * cols,
                                      whole.data() + (t + 1) * rows * cols));
      checks.same("direct_session_vs_window", slice, sessions[j].ref[static_cast<std::size_t>(t)]);
    }
  }

  (void)run_pass(args, port, sessions, pool, pool_ref, warmup_s, nullptr, checks);
  const Pass p = run_pass(args, port, sessions, pool, pool_ref, measure_s, nullptr, checks);
  result.attempted(p.steps + p.oneshots);
  result.failed(p.step_failed + p.oneshot_failed,
                "stream steps or one-shots answered with an error " + p.error);

  const auto ns = static_cast<int64_t>(p.step_ms.size());
  const auto no = static_cast<int64_t>(p.oneshot_ms.size());
  const int64_t step_miss = p.step_failed + p.step_late;
  const int64_t oneshot_miss = p.oneshot_failed + p.oneshot_shed + p.oneshot_late;
  const double goodput =
      static_cast<double>(p.steps - step_miss + p.oneshots - oneshot_miss) / p.elapsed_s;
  result.info("stream_step_p50_ms", p.step_ms.percentile(50), "ms", ns);
  result.info("stream_step_p90_ms", p.step_ms.percentile(90), "ms", ns);
  result.info("stream_step_p99_ms", p.step_ms.percentile(99), "ms", ns);
  result.info("stream_miss_ratio", ratio(step_miss, p.steps), "ratio", p.steps);
  result.info("serve_p50_ms", p.oneshot_ms.percentile(50), "ms", no);
  result.info("serve_p99_ms", p.oneshot_ms.percentile(99), "ms", no);
  result.info("serve_miss_ratio", ratio(oneshot_miss, p.oneshots), "ratio", p.oneshots);
  result.info("goodput_per_s", goodput, "1/s", p.steps + p.oneshots);
  result.info("loadgen.lateness_p99_ms", p.lateness_ms.percentile(99), "ms",
              static_cast<int64_t>(p.lateness_ms.size()));

  if (!args.trace) {
    common_e2e(result, setup_ms);
    result.e2e("throughput_per_s", goodput, "1/s");
    result.e2e("latency_ms", step_latency_ms(p), "ms");
    return;
  }

  Tracer tracer;
  const Pass t = run_pass(args, port, sessions, pool, pool_ref, measure_s, &tracer, checks);
  result.attempted(t.steps + t.oneshots);
  result.failed(t.step_failed + t.oneshot_failed,
                "traced stream steps or one-shots answered with an error " + t.error);
  const auto stats = st.registry->acquire(kModel)->executor().stats();
  const double direct = direct_ms.mean();
  const double step_direct = step_direct_ms.mean();
  result.layer("runtime.compile_ms", median(compile_ms), "ms");
  result.layer("wire.oneshot_rtt_p50_ms", t.rtt_ms.percentile(50), "ms");
  result.layer("serve.overhead_ms", t.rtt_ms.mean() - direct, "ms");
  result.layer("wire.request_bytes", static_cast<double>(t.request_bytes), "bytes");
  result.layer("wire.response_bytes", static_cast<double>(t.response_bytes), "bytes");
  // Each connection keeps one request in flight, so no session queues a
  // second step and this reads 0 (the executor's default queue is unbounded).
  result.layer("stream.backpressure", static_cast<double>(stats.backpressure_rejections), "count");
  result.layer("stream.step_direct_ms", step_direct, "ms");
  // The served model's executor: its request window holds the one-shots
  // of every pass (stream steps keep their own per-session queues). It
  // runs with the library's default coalescing (off), and one one-shot is
  // in flight at a time anyway, so the coalesce ratio reads 0.
  result.layer("executor.queue_wait_p50_ms", stats.queue_p50_ms, "ms");
  result.layer("executor.queue_wait_p95_ms", stats.queue_p95_ms, "ms");
  result.layer("executor.service_ms", stats.mean_ms, "ms");
  result.layer("executor.utilization", stats.worker_utilization, "ratio");
  result.layer("executor.coalesce_ratio", ratio(stats.coalesced_requests, stats.requests), "ratio");
  result.layer("executor.shed", static_cast<double>(stats.shed_requests), "count");
  result.layer("executor.failed", static_cast<double>(t.step_failed + t.oneshot_failed), "count");
  result.layer("executor.slo_violations", static_cast<double>(stats.slo_violations), "count");
  const std::size_t ops = plan.plan_ir().ops.size();
  result.layer("stream.delta_skip_ratio",
               static_cast<double>(skipped) /
                   static_cast<double>(static_cast<int64_t>(ops) * static_cast<int64_t>(step_direct_ms.size())),
               "ratio");
  result.layer("loadgen.lateness_p99_ms", t.lateness_ms.percentile(99), "ms");
  const double untraced = p.step_ms.mean();
  result.layer("trace.overhead_pct", 100.0 * (t.step_ms.mean() - untraced) / untraced, "%");
  // Blocking path of a stream step: schedule lateness, then the wire round
  // trip. Of the round trip only the model's share, StreamSession::step, can
  // be timed from outside; the residual is the wire, server and executor.
  const double wire_step = tracer.total_ms("wire.stream_step_ms") /
                           static_cast<double>(std::max<int64_t>(tracer.count("wire.stream_step_ms"), 1));
  const double accounted = t.step_lateness_ms.mean() + step_direct;
  result.layer("trace.unaccounted_pct", 100.0 * (untraced - accounted) / untraced, "%");
  result.note("accounting: untraced stream step " + std::to_string(untraced) + " ms = lateness " +
              std::to_string(t.step_lateness_ms.mean()) + " ms + direct StreamSession::step " +
              std::to_string(step_direct) + " ms + residual (wire, server, executor); traced round trip " +
              std::to_string(wire_step) + " ms; one-shot RTT " + std::to_string(t.rtt_ms.mean()) +
              " ms vs direct infer " + std::to_string(direct) + " ms");
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
