// Shared plumbing of the repository benchmark (see perfbench/README.md):
// run arguments and the fixed workload parameters, latency samples, the
// span recorder that times calls into the library from outside, the
// result that becomes the benchmark's JSON line, correctness checks, and
// the trained fixture the inference workloads serve.
//
// Nothing here reaches into the library's internals: every timed region
// wraps a public call, so the library itself carries no benchmark code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/synthetic.hpp"
#include "tensor/tensor.hpp"
#include "util/cli.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using ndsnn::tensor::Tensor;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Command line of one run. Workload parameters arrive as
/// `--<section>.<key> <value>` pairs (run.py flattens params.json), and
/// every one a workload reads is required: a missing key is an error,
/// never a silent default.
class Args {
 public:
  Args(int argc, const char* const* argv);

  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event file written by traced runs
  /// Self-test hook: name of one correctness check whose observed output
  /// is perturbed by one ulp before it is checked (see Checks).
  std::string perturb;

  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] int64_t integer(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;

 private:
  ndsnn::util::Cli cli_;
};

/// Latency (or any) samples; percentiles are nearest-rank.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double percentile(double pct) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

 private:
  std::vector<double> v_;
};

/// Spans around calls into the library, recorded from the benchmark's
/// side. Each span has an id, the id of the span that caused it and a
/// request id shared by every span of one request. Spans stay in memory
/// and are written as Chrome trace-event JSON when the run ends; per-name
/// totals feed the per-layer metrics. Thread-safe.
class Tracer {
 public:
  struct Record {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    uint32_t tid = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t req = 0;
  };

  /// RAII span: closes on destruction or end().
  class Span {
   public:
    Span(Tracer& t, std::string name, uint64_t parent, uint64_t req);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] uint64_t id() const { return id_; }
    /// Close now; returns the duration in ms (idempotent).
    double end();

   private:
    Tracer& t_;
    std::string name_;
    uint64_t id_, parent_, req_;
    Clock::time_point start_;
    double dur_ms_ = -1.0;
  };

  Tracer();
  [[nodiscard]] Span span(std::string name, uint64_t parent = 0, uint64_t req = 0) {
    return Span(*this, std::move(name), parent, req);
  }
  /// Record an interval measured elsewhere (e.g. scheduled send -> seen).
  uint64_t add(const std::string& name, Clock::time_point start, Clock::time_point end,
               uint64_t parent = 0, uint64_t req = 0);

  /// Summed duration (ms) and count of every span with this name.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] int64_t count(const std::string& name) const;
  [[nodiscard]] std::size_t spans() const;
  void write_chrome(const std::string& path) const;

 private:
  struct Agg {
    double total_ms = 0.0;
    int64_t count = 0;
  };
  [[nodiscard]] uint64_t next_id();

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::map<std::string, Agg> agg_;
  uint64_t next_id_ = 0;
};

/// What one run reports: end-to-end metrics (the JSON of an untraced
/// run), per-layer metrics (the JSON of a traced run), informational
/// lines, and the correctness tally.
class Result {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A named figure printed for humans, with its sample count.
  void info(const std::string& name, double value, const std::string& unit, int64_t n = -1);
  void note(const std::string& line);

  /// Count one checked operation; a false `ok` marks it failed, records
  /// `what` (first few only) and makes the run incorrect.
  void check(bool ok, const std::string& what);
  void attempted(int64_t n) { attempted_ += n; }
  void failed(int64_t n, const std::string& what);

  [[nodiscard]] bool correct() const { return failed_ == 0 && check_failures_ == 0; }
  /// Print every line, then the JSON result line last; returns the exit
  /// code (0 when correct).
  int emit(bool trace) const;

 private:
  struct M {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<M> e2e_, layer_;
  std::vector<std::string> lines_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t check_failures_ = 0;
  int64_t reported_failures_ = 0;
};

/// Correctness checks. Each check has a name; with --perturb <name> the
/// observed value is nudged by one ulp before comparing, which must make
/// that check fail (the benchmark's self-test relies on this).
class Checks {
 public:
  Checks(Result& result, std::string perturb) : result_(result), perturb_(std::move(perturb)) {}
  /// Bitwise equality of two tensors (shape and every float's bits).
  bool same(const char* check, const Tensor& expected, Tensor observed);
  bool same_value(const char* check, double expected, double observed);
  bool same_digest(const char* check, uint64_t expected, uint64_t observed);
  /// observed >= floor.
  bool at_least(const char* check, double floor, double observed);

 private:
  [[nodiscard]] bool perturbing(const char* check) const { return perturb_ == check; }

  Result& result_;
  std::string perturb_;
};

/// Bitwise comparison helper (no perturbation, no accounting).
[[nodiscard]] bool bitwise_equal(const Tensor& a, const Tensor& b);
/// FNV-1a over shape and float bits.
[[nodiscard]] uint64_t digest(const Tensor& t, uint64_t h = 1469598103934665603ULL);
[[nodiscard]] std::string hex(uint64_t v);

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Layer family of a source layer name ("Conv2d(3->12, ...)" -> "conv2d",
/// "BatchNorm2d(12)" -> "bn", "LIF(...)" -> "lif", "AvgPool2d" -> "pool").
[[nodiscard]] std::string layer_type(const std::string& layer_name);

/// The recipe shared by train_ndsnn and the inference fixture: NDSNN
/// drop-and-grow LeNet-5 on synthetic CIFAR-10 (the fig5_training_cost
/// configuration). `section` selects the epoch/sample counts.
[[nodiscard]] ndsnn::core::ExperimentConfig recipe(const Args& args, const std::string& section,
                                                   uint64_t seed);

/// A trained network ready to compile: the experiment (network, data,
/// method) after Trainer::run, plus what shows that two runs used the
/// same inputs.
struct Fixture {
  ndsnn::core::Experiment exp;
  ndsnn::core::TrainResult trained;
  uint64_t weights_digest = 0;
};

/// Train the fixture from scratch (seeded by fixture.seed, never cached).
[[nodiscard]] std::unique_ptr<Fixture> train_fixture(const Args& args);
[[nodiscard]] uint64_t weights_digest(ndsnn::nn::SpikingNetwork& net);

/// Held-out images of the fixture's classes, disjoint from its training
/// and test samples, chosen by the workload seed: `batches` batches of
/// `rows` images each.
[[nodiscard]] std::vector<Tensor> held_out(const Fixture& fx, uint64_t seed, int64_t batches,
                                           int64_t rows);

/// Median of a few timed set-ups.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
