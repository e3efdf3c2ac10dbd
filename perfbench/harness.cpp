#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ Args

Args::Args(int argc, const char* const* argv) : cli_(argc, argv) {
  workload = cli_.get_string("--workload", "");
  seed = static_cast<uint64_t>(std::stoull(cli_.get_string("--seed", "1")));
  seconds = cli_.get_double("--seconds", 10.0);
  trace = cli_.get_int("--trace", 0) != 0;
  trace_out = cli_.get_string("--trace-out", "");
  perturb = cli_.get_string("--perturb", "");
  if (seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
}

std::string Args::str(const std::string& key) const {
  const std::string flag = "--" + key;
  const std::string missing = "\x01";
  std::string v = cli_.get_string(flag, missing);
  if (v == missing) throw std::invalid_argument("missing workload parameter " + flag);
  return v;
}

double Args::num(const std::string& key) const {
  const std::string v = str(key);
  std::size_t used = 0;
  const double d = std::stod(v, &used);
  if (used != v.size()) throw std::invalid_argument("bad number for --" + key + ": " + v);
  return d;
}

int64_t Args::integer(const std::string& key) const {
  const double d = num(key);
  if (d != std::floor(d)) throw std::invalid_argument("--" + key + " must be a whole number");
  return static_cast<int64_t>(d);
}

// --------------------------------------------------------------- Samples

double Samples::percentile(double pct) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(s.size())));
  return s[std::min(s.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- Tracer

namespace {

uint32_t thread_index() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return ++next_id_;
}

Tracer::Span::Span(Tracer& t, std::string name, uint64_t parent, uint64_t req)
    : t_(t), name_(std::move(name)), id_(t.next_id()), parent_(parent), req_(req),
      start_(Clock::now()) {}

double Tracer::Span::end() {
  if (dur_ms_ >= 0.0) return dur_ms_;
  const Clock::time_point stop = Clock::now();
  dur_ms_ = ms_between(start_, stop);
  std::lock_guard<std::mutex> lk(t_.mu_);
  t_.records_.push_back({name_, ms_between(t_.epoch_, start_) * 1e3, dur_ms_ * 1e3,
                         thread_index(), id_, parent_, req_});
  Agg& a = t_.agg_[name_];
  a.total_ms += dur_ms_;
  ++a.count;
  return dur_ms_;
}

uint64_t Tracer::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                     uint64_t parent, uint64_t req) {
  const double dur = ms_between(start, end);
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t id = ++next_id_;
  records_.push_back({name, ms_between(epoch_, start) * 1e3, dur * 1e3, thread_index(), id,
                      parent, req});
  Agg& a = agg_[name];
  a.total_ms += dur;
  ++a.count;
  return id;
}

double Tracer::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0.0 : it->second.total_ms;
}

int64_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = agg_.find(name);
  return it == agg_.end() ? 0 : it->second.count;
}

std::size_t Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  ndsnn::util::JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Record& r : records_) {
      json.begin_object();
      json.kv("name", std::string_view(r.name));
      json.kv("ph", "X");
      json.kv("ts", r.ts_us);
      json.kv("dur", r.dur_us);
      json.kv("pid", int64_t{1});
      json.kv("tid", static_cast<int64_t>(r.tid));
      json.key("args").begin_object();
      json.kv("id", static_cast<int64_t>(r.id));
      json.kv("parent", static_cast<int64_t>(r.parent));
      json.kv("req", static_cast<int64_t>(r.req));
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  json.write_file(path);
}

// ---------------------------------------------------------------- Result

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::e2e(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Result::layer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Result::info(const std::string& name, double value, const std::string& unit, int64_t n) {
  char buf[256];
  if (n >= 0) {
    std::snprintf(buf, sizeof buf, "  %-28s %14.4f %-10s (n=%lld)", name.c_str(), value,
                  unit.c_str(), static_cast<long long>(n));
  } else {
    std::snprintf(buf, sizeof buf, "  %-28s %14.4f %s", name.c_str(), value, unit.c_str());
  }
  lines_.emplace_back(buf);
}

void Result::note(const std::string& line) { lines_.push_back(line); }

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  ++failed_;
  if (reported_failures_++ < 8) lines_.push_back("CHECK FAILED: " + what);
}

void Result::failed(int64_t n, const std::string& what) {
  if (n <= 0) return;
  failed_ += n;
  lines_.push_back("FAILED " + std::to_string(n) + ": " + what);
}

int Result::emit(bool trace) const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  const std::vector<M>& metrics = trace ? layer_ : e2e_;
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " + fmt(v) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// ---------------------------------------------------------------- Checks

namespace {

void nudge(Tensor& t) {
  if (t.numel() == 0) return;
  float& v = t.data()[0];
  v = std::nextafter(v, v + 1.0F);
}

}  // namespace

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool Checks::same(const char* check, const Tensor& expected, Tensor observed) {
  if (perturbing(check)) nudge(observed);
  const bool ok = bitwise_equal(expected, observed);
  result_.check(ok, std::string(check) + ": output differs bitwise from its reference");
  return ok;
}

bool Checks::same_value(const char* check, double expected, double observed) {
  if (perturbing(check)) observed = std::nextafter(observed, observed + 1.0);
  const bool ok = std::memcmp(&expected, &observed, sizeof(double)) == 0;
  result_.check(ok, std::string(check) + ": expected " + fmt(expected) + ", got " + fmt(observed));
  return ok;
}

bool Checks::same_digest(const char* check, uint64_t expected, uint64_t observed) {
  if (perturbing(check)) observed ^= 1;
  const bool ok = expected == observed;
  result_.check(ok, std::string(check) + ": digest " + hex(observed) + " != " + hex(expected));
  return ok;
}

bool Checks::at_least(const char* check, double floor, double observed) {
  if (perturbing(check)) observed = std::nextafter(floor, floor - 1.0);
  const bool ok = observed >= floor;
  result_.check(ok, std::string(check) + ": " + fmt(observed) + " is below " + fmt(floor));
  return ok;
}

// ----------------------------------------------------------------- misc

uint64_t digest(const Tensor& t, uint64_t h) {
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (int64_t i = 0; i < t.rank(); ++i) {
    const int64_t d = t.dim(i);
    mix(&d, sizeof d);
  }
  mix(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return h;
}

std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string layer_type(const std::string& layer_name) {
  std::string t;
  for (const char c : layer_name) {
    if (c == '(') break;
    t += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (t.rfind("batchnorm", 0) == 0) return "bn";
  if (t.find("pool") != std::string::npos) return "pool";
  if (t == "lif" || t == "plif" || t == "alif") return "lif";
  return t;
}

// --------------------------------------------------------------- fixture

ndsnn::core::ExperimentConfig recipe(const Args& args, const std::string& section,
                                     uint64_t seed) {
  ndsnn::core::ExperimentConfig c;
  c.arch = args.str("model.arch");
  c.dataset = args.str("model.dataset");
  c.method = "ndsnn";
  c.sparsity = args.num("model.sparsity");
  c.timesteps = args.integer("model.timesteps");
  c.batch_size = args.integer("model.batch");
  c.model_scale = args.num("model.width");
  c.data_scale = args.num("model.data_scale");
  c.learning_rate = args.num("model.lr");
  c.epochs = args.integer(section + ".epochs");
  c.train_samples = args.integer(section + ".train_samples");
  c.test_samples = args.integer(section + ".test_samples");
  c.seed = seed;
  return c;
}

uint64_t weights_digest(ndsnn::nn::SpikingNetwork& net) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& p : net.params()) h = digest(*p.value, h);
  return h;
}

std::unique_ptr<Fixture> train_fixture(const Args& args) {
  auto fx = std::make_unique<Fixture>();
  fx->exp = ndsnn::core::build_experiment(
      recipe(args, "fixture", static_cast<uint64_t>(args.integer("fixture.seed"))));
  ndsnn::core::Trainer trainer(*fx->exp.network, *fx->exp.method, *fx->exp.train_set,
                               *fx->exp.test_set, fx->exp.trainer);
  fx->trained = trainer.run();
  fx->weights_digest = weights_digest(*fx->exp.network);
  return fx;
}

std::vector<Tensor> held_out(const Fixture& fx, uint64_t seed, int64_t batches, int64_t rows) {
  ndsnn::data::SyntheticSpec spec = fx.exp.test_set->spec();
  // Same class prototypes as the fixture's data, but a sample stream far
  // past its train (offset 0) and test (offset 2^20) streams.
  spec.sample_offset = (int64_t{1} << 30) + static_cast<int64_t>(seed % 4096) * (int64_t{1} << 18);
  spec.train_size = batches * rows;
  const ndsnn::data::SyntheticVision set(spec);
  std::vector<Tensor> out;
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<int64_t> idx(static_cast<std::size_t>(rows));
    std::iota(idx.begin(), idx.end(), b * rows);
    out.push_back(ndsnn::data::make_batch(set, idx).images);
  }
  return out;
}

}  // namespace perfbench
