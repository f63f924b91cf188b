// Whole-network benchmark: paper networks run layer by layer on GeoMachine,
// serially and through InferenceServer, timed per network and per phase.
//
//   netbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
//
// Workloads (README.md beside this file says why each was chosen):
//   cnn4_serial    cnn4-cifar on HwConfig::ulp(), one network after another
//   lenet5_serial  LeNet-5 on HwConfig::lp(), one network after another
//   lenet5_serve   LeNet-5 on HwConfig::lp() through one InferenceServer,
//                  closed loop of 4 client threads
//
// The seed generates the weights, the folded batch-norm coefficients and 8
// inputs; the library only ever sees those generated operands. Layers are
// chained here: the 8-bit activations are dequantized with
// nn::dequantize_unsigned and 2x2-average-pooled where ConvShape::pool is
// set. Only public entry points are called, and each phase is timed from
// outside by wrapping the calls into it.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: with --trace 0 the end-to-end metrics of an untraced run, with
// --trace 1 the per-layer metrics of a traced run (alternate networks
// traced, spans written to --trace-out). The line before it stamps the
// effective configuration and every count that does not fit a metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/hw_config.hpp"
#include "arch/machine.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"
#include "nn/quantize.hpp"
#include "sc/simd.hpp"
#include "sc/stream_table.hpp"
#include "serve/serve.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"

namespace netbench {
namespace {

using geo::arch::ConvShape;
using geo::arch::GeoMachine;
using geo::arch::HwConfig;
using geo::arch::MachineStats;
using geo::arch::NetworkShape;

constexpr int kInputs = 8;       // seeded inputs each workload cycles over
constexpr int kSetupReps = 3;    // set-ups per run; setup_s is their median
constexpr int kClients = 4;      // lenet5_serve closed-loop client threads
// Host-speed calibration: a fixed loop timed every kCalibEveryS during the
// timed phase. This host runs in phases up to ~1.9x slower for seconds at a
// time, which moves a raw median by far more than any bound could allow, so
// the end-to-end host times are normalised: each network's wall time is
// scaled by kCalibNominalMs / (the calibration samples around it), i.e.
// reported in ms at the host speed where the loop takes kCalibNominalMs (a
// fast phase of the 4-vCPU Xeon host the benchmark was tuned on). Raw
// figures are in the stamp line.
constexpr double kCalibEveryS = 0.05;
constexpr double kCalibNominalMs = 2.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Fixed integer/popcount work, timed beside the workload so that host-speed
// phases show next to every timing (host.calib_ms). Two independent
// xorshift chains read-modify-write a 64 KiB table and popcount the words:
// like the simulator's stream-table and bitstream work, it is sensitive to
// contention for the core and its caches. Of the loops tried it tracked the
// network time best (a single dependent xorshift chain tracked it worse).
double calib_ms() {
  static std::vector<std::uint64_t> table(1 << 13);
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull, y = 0xD1B54A32D192ED03ull, acc = 0;
  const std::size_t mask = table.size() - 1;
  for (int i = 0; i < (1 << 18); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    std::uint64_t& a = table[x & mask];
    std::uint64_t& b = table[y & mask];
    a ^= y;
    b += x;
    acc += static_cast<std::uint64_t>(std::popcount(a) + std::popcount(b));
  }
  asm volatile("" : : "r"(acc));
  return seconds_since(t0) * 1e3;
}

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  NetworkShape net;
  HwConfig hw;
  const char* hw_name;
  bool serve;
};

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  if (name == "cnn4_serial")
    return WorkloadSpec{"cnn4_serial", NetworkShape::cnn4_cifar(),
                        HwConfig::ulp(), "ulp", false};
  if (name == "lenet5_serial")
    return WorkloadSpec{"lenet5_serial", NetworkShape::lenet5(),
                        HwConfig::lp(), "lp", false};
  if (name == "lenet5_serve")
    return WorkloadSpec{"lenet5_serve", NetworkShape::lenet5(),
                        HwConfig::lp(), "lp", true};
  return std::nullopt;
}

// Union of the layer names of both networks: every workload reports the
// same per-layer metric set, with 0 for a layer its network does not have.
const std::vector<std::string>& all_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const NetworkShape& n :
         {NetworkShape::cnn4_cifar(), NetworkShape::lenet5()})
      for (const ConvShape& l : n.layers)
        if (std::find(out.begin(), out.end(), l.name) == out.end())
          out.push_back(l.name);
    return out;
  }();
  return names;
}

// ------------------------------------------------------------ the model

struct Layer {
  ConvShape shape;
  std::vector<float> weights, bn_scale, bn_shift;
  std::uint64_t salt = 0;
};

struct Model {
  std::vector<Layer> layers;
  std::vector<std::vector<float>> inputs;
};

// SC accumulation ORs the products of each accumulation group (one group
// per kernel column under PBW, the whole fan-in of an FC layer), so the
// weight range shrinks with the group fan-in to keep the OR short of
// saturation, and the folded BN maps the result onto the bounded ReLU. The
// activations then neither vanish nor saturate layer after layer (the stamp
// reports their zero share and spread). Salts are per layer, as a compiled
// network would assign them.
Model make_model(const NetworkShape& net, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  std::uniform_real_distribution<float> sdist(0.8f, 1.2f);
  Model m;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    Layer l;
    l.shape = net.layers[i];
    const float fan_in = static_cast<float>(l.shape.taps()) /
                         static_cast<float>(l.shape.kw);
    const float range = std::min(0.5f, 8.0f / fan_in);
    l.weights.resize(static_cast<std::size_t>(l.shape.weights()));
    for (float& w : l.weights) w = range * unit(rng);
    const float gain = 2.0f / std::sqrt(static_cast<float>(l.shape.kw));
    for (int c = 0; c < l.shape.cout; ++c) {
      l.bn_scale.push_back(gain * sdist(rng));
      l.bn_shift.push_back(0.25f);
    }
    l.salt = i + 1;
    m.layers.push_back(std::move(l));
  }
  for (int k = 0; k < kInputs; ++k) {
    std::vector<float> in(
        static_cast<std::size_t>(net.layers.front().activations()));
    for (float& a : in) a = adist(rng);
    m.inputs.push_back(std::move(in));
  }
  return m;
}

// The inter-layer step: dequantize the 8-bit activations (as
// PipelineRouter does) and apply the 2x2 average pooling that
// ConvShape::pool marks.
void chain(std::span<const std::uint8_t> act, const ConvShape& s,
           std::vector<float>& out) {
  if (!s.pool) {
    out.resize(act.size());
    for (std::size_t i = 0; i < act.size(); ++i)
      out[i] = geo::nn::dequantize_unsigned(act[i], 8);
    return;
  }
  const int h = s.hout(), w = s.wout(), ho = h / 2, wo = w / 2;
  out.resize(static_cast<std::size_t>(s.cout) * ho * wo);
  auto at = [&](int c, int y, int x) {
    return geo::nn::dequantize_unsigned(
        act[(static_cast<std::size_t>(c) * h + y) * w + x], 8);
  };
  for (int c = 0; c < s.cout; ++c)
    for (int y = 0; y < ho; ++y)
      for (int x = 0; x < wo; ++x)
        out[(static_cast<std::size_t>(c) * ho + y) * wo + x] =
            (at(c, 2 * y, 2 * x) + at(c, 2 * y, 2 * x + 1) +
             at(c, 2 * y + 1, 2 * x) + at(c, 2 * y + 1, 2 * x + 1)) *
            0.25f;
}

// ------------------------------------------------------- network runs

struct LayerRun {
  std::vector<std::uint8_t> act;
  MachineStats stats;
  std::int64_t tiles = 0;   // serial runs only
  double queue_us = 0.0;    // served runs only
  double exec_us = 0.0;
};

struct NetRun {
  std::vector<LayerRun> layers;
  std::string error;  // empty = every call succeeded
  double ms = 0.0;       // wall time
  double norm_ms = 0.0;  // wall time at the nominal host speed
  double start_s = 0.0;  // since the timed phase started
  bool traced = false;

  std::int64_t cycles() const {
    std::int64_t c = 0;
    for (const LayerRun& l : layers) c += l.stats.total_cycles;
    return c;
  }
};

// One network, layer by layer, on one GeoMachine.
class SerialRunner {
 public:
  SerialRunner(const HwConfig& hw, const Model& model)
      : machine_(hw), model_(model) {}

  void run(int input, int net_id, SpanBuffer* tb, NetRun& out) {
    ScopedSpan net_span(tb, "network", net_id);
    out.layers.assign(model_.layers.size(), LayerRun{});
    std::span<const float> x = model_.inputs[static_cast<std::size_t>(input)];
    for (std::size_t li = 0; li < model_.layers.size(); ++li) {
      const int lid = static_cast<int>(li);
      ScopedSpan layer_span(tb, "layer", net_id, lid);
      const Layer& l = model_.layers[li];
      LayerRun& lr = out.layers[li];
      auto ex = [&] {
        ScopedSpan s(tb, "arch.prepare_conv", net_id, lid);
        return machine_.prepare_conv(l.shape, l.weights, x, l.bn_scale,
                                     l.bn_shift, l.salt);
      }();
      if (!ex.ok()) {
        out.error = l.shape.name + ": " + ex.status().to_string();
        return;
      }
      lr.tiles = ex->tile_count();
      {
        ScopedSpan s(tb, "exec.run_all", net_id, lid);
        runner_.run_all(*ex);
      }
      geo::arch::MachineResult r;
      {
        ScopedSpan s(tb, "arch.finish", net_id, lid);
        r = ex->finish();
      }
      lr.act = std::move(r.activations);
      lr.stats = r.stats;
      if (li + 1 < model_.layers.size()) {
        std::vector<float>& next = buf_[li % 2];
        ScopedSpan s(tb, "bench.chain", net_id, lid);
        chain(lr.act, l.shape, next);
        x = next;
      }
    }
  }

 private:
  GeoMachine machine_;
  geo::exec::ParallelConvRunner runner_;
  const Model& model_;
  std::vector<float> buf_[2];  // ping-pong chained activations
};

// One network, layer by layer, each layer a request to the server.
void run_served(geo::serve::InferenceServer& server, const Model& model,
                const std::string& tenant, int input, int net_id,
                SpanBuffer* tb, std::vector<float> (&buf)[2], NetRun& out) {
  ScopedSpan net_span(tb, "network", net_id);
  out.layers.assign(model.layers.size(), LayerRun{});
  std::span<const float> x = model.inputs[static_cast<std::size_t>(input)];
  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    const int lid = static_cast<int>(li);
    ScopedSpan layer_span(tb, "layer", net_id, lid);
    const Layer& l = model.layers[li];
    LayerRun& lr = out.layers[li];
    geo::serve::Request req;
    req.tenant = tenant;
    req.shape = l.shape;
    req.weights = l.weights;
    req.input = x;
    req.bn_scale = l.bn_scale;
    req.bn_shift = l.bn_shift;
    req.layer_salt = l.salt;
    geo::serve::Response resp;
    {
      ScopedSpan s(tb, "serve.run", net_id, lid);
      resp = server.run(std::move(req));
      s.set_serve_args(resp.queue_us, resp.exec_us);
    }
    if (!resp.status.ok() || resp.degraded) {
      out.error = l.shape.name + ": " +
                  (resp.status.ok() ? std::string("degraded")
                                    : resp.status.to_string());
      return;
    }
    lr.act = std::move(resp.result.activations);
    lr.stats = resp.result.stats;
    lr.queue_us = resp.queue_us;
    lr.exec_us = resp.exec_us;
    if (li + 1 < model.layers.size()) {
      std::vector<float>& next = buf[li % 2];
      ScopedSpan s(tb, "bench.chain", net_id, lid);
      chain(lr.act, l.shape, next);
      x = next;
    }
  }
}

// Empty when `run` matches the set-up reference for the same input: every
// layer's activations byte-identical and every ledger reconciled; with
// `exact_cycles`, every layer's simulated cycles identical too (served runs
// are checked without: a batched member may legitimately be charged less).
std::string check(const NetRun& run, const NetRun& ref, bool exact_cycles) {
  if (!run.error.empty()) return run.error;
  for (std::size_t li = 0; li < ref.layers.size(); ++li) {
    const LayerRun& a = run.layers[li];
    const LayerRun& b = ref.layers[li];
    if (!a.stats.ledger_ok) return "layer " + std::to_string(li) + ": ledger";
    if (a.act != b.act) return "layer " + std::to_string(li) + ": output";
    if (exact_cycles && a.stats.total_cycles != b.stats.total_cycles)
      return "layer " + std::to_string(li) + ": cycles";
  }
  return {};
}

// ------------------------------------------------------------- set-up

// Everything built before the first timed network: the seeded model, the
// serial reference run of every input (which also warms the stream-table
// cache), and for the serving workload the server plus a warm-up pass.
struct State {
  Model model;
  std::vector<NetRun> refs;  // per input
  std::unique_ptr<geo::serve::InferenceServer> server;
};

geo::serve::ServeOptions serve_options() {
  geo::serve::ServeOptions o;  // not from_env: GEO_SERVE_* cannot leak in
  o.replicas = 2;
  o.batch = 4;
  o.batch_wait_us = 0;
  o.queue_capacity = 256;  // never binding for 4 clients
  o.tenant_quota = 256;
  o.high_water = 256;      // >= capacity: no overload steering
  o.default_deadline_us = 0;
  return o;
}

std::unique_ptr<State> set_up(const WorkloadSpec& w, std::uint64_t seed,
                              std::string& error) {
  auto st = std::make_unique<State>();
  st->model = make_model(w.net, seed);
  SerialRunner ref(w.hw, st->model);
  st->refs.resize(kInputs);
  for (int k = 0; k < kInputs; ++k) {
    ref.run(k, -1, nullptr, st->refs[static_cast<std::size_t>(k)]);
    const NetRun& r = st->refs[static_cast<std::size_t>(k)];
    if (!r.error.empty()) {
      error = "reference input " + std::to_string(k) + ": " + r.error;
      return nullptr;
    }
    for (const LayerRun& l : r.layers)
      if (!l.stats.ledger_ok) {
        error = "reference input " + std::to_string(k) + ": ledger";
        return nullptr;
      }
  }
  if (!w.serve) return st;

  st->server =
      std::make_unique<geo::serve::InferenceServer>(w.hw, serve_options());
  // Zero-rate fault domain on every replica, so an ambient GEO_FAULTS
  // cannot change a served number.
  for (int r = 0; r < st->server->options().replicas; ++r)
    st->server->set_replica_fault(r, geo::fault::FaultConfig{});
  std::vector<float> buf[2];
  for (int k = 0; k < kInputs; ++k) {
    NetRun run;
    run_served(*st->server, st->model, "warmup", k, -1, nullptr, buf, run);
    const std::string err =
        check(run, st->refs[static_cast<std::size_t>(k)], false);
    if (!err.empty()) {
      error = "served warm-up input " + std::to_string(k) + ": " + err;
      return nullptr;
    }
  }
  return st;
}

// ------------------------------------------------------------ results

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t counter(const char* name) {
  return geo::telemetry::MetricsRegistry::instance().counter(name).value();
}

struct StreamTableCounts {
  std::int64_t hits = counter("machine.stream_table_hits");
  std::int64_t misses = counter("machine.stream_table_misses");
  std::int64_t build_ns = counter("machine.stream_table_build_ns");
};

// FNV-1a over every reference output: equal fingerprints mean the serial
// and served workloads checked against the same outputs for a seed.
std::uint64_t fingerprint(const std::vector<NetRun>& refs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const NetRun& r : refs)
    for (std::uint8_t b : r.layers.back().act) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  return h;
}

// Per-layer share of zero activations and spread of the activation codes
// over the set-up references, so the stamp shows the generated data is neither
// vanishing nor saturated.
std::string activation_profile(const std::vector<NetRun>& refs) {
  std::string zero, spread;
  for (std::size_t li = 0; li < refs.front().layers.size(); ++li) {
    double zeros = 0.0, sum = 0.0, sq = 0.0, count = 0.0;
    for (const NetRun& r : refs)
      for (std::uint8_t v : r.layers[li].act) {
        zeros += v == 0 ? 1.0 : 0.0;
        sum += v;
        sq += static_cast<double>(v) * v;
        count += 1.0;
      }
    const double mu = sum / count;
    zero += (li ? ", " : "") + num(zeros / count);
    spread += (li ? ", " : "") + num(std::sqrt(sq / count - mu * mu));
  }
  return "\"ref_act_zero_share\": [" + zero + "], \"ref_act_std\": [" +
         spread + "]";
}

// Per-layer self times of the traced networks, as medians over networks:
// by_phase[(span name, layer)] in ns, and per_network[span name] = the
// span's self time summed over one network's layers.
struct SelfTimes {
  std::map<std::pair<std::string, int>, std::vector<double>> by_phase;
  std::map<std::string, std::vector<double>> per_network;
  std::vector<double> network_ns;
};

SelfTimes self_times(const std::vector<const SpanBuffer*>& buffers) {
  SelfTimes t;
  for (const SpanBuffer* buf : buffers) {
    std::map<std::string, double> net_sum;
    for (const Span& s : buf->spans()) {
      t.by_phase[{s.name, s.layer}].push_back(
          static_cast<double>(s.self_ns()));
      net_sum[s.name] += static_cast<double>(s.self_ns());
      if (std::strcmp(s.name, "network") == 0) {
        // Spans of one network are contiguous in its thread's buffer and
        // the network span closes last, so its own entry ends the group.
        for (const auto& [name, ns] : net_sum)
          t.per_network[name].push_back(ns);
        t.network_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
        net_sum.clear();
      }
    }
  }
  return t;
}

// ---------------------------------------------------------- main flow

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0 && a.seconds <= 120.0))
        return std::nullopt;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload) return std::nullopt;
  return a;
}

struct CalibSample {
  double t_s;  // midpoint, since the timed phase started
  double ms;
};

struct TimedRun {
  std::vector<NetRun> nets;  // per thread in order, threads concatenated
  std::vector<CalibSample> calib;
  double wall_s = 0.0;
  double norm_wall_s = 0.0;  // wall time at the nominal host speed
  std::vector<std::unique_ptr<SpanBuffer>> buffers;

  std::vector<double> calib_ms() const {
    std::vector<double> v;
    for (const CalibSample& c : calib) v.push_back(c.ms);
    return v;
  }
};

void calibrate(Clock::time_point epoch, std::vector<CalibSample>& calib) {
  const double t0 = seconds_since(epoch);
  const double ms = calib_ms();
  calib.push_back({t0 + ms / 2e3, ms});
}

// kCalibNominalMs over the mean of the last calibration sample before
// `from_s` and the first after `to_s` (whichever of them exist).
double speed_factor(const std::vector<CalibSample>& calib, double from_s,
                    double to_s) {
  auto after = std::lower_bound(
      calib.begin(), calib.end(), to_s,
      [](const CalibSample& c, double t) { return c.t_s < t; });
  auto before = std::lower_bound(
      calib.begin(), calib.end(), from_s,
      [](const CalibSample& c, double t) { return c.t_s < t; });
  double sum = 0.0, n = 0.0;
  if (before != calib.begin()) {
    sum += std::prev(before)->ms;
    n += 1.0;
  }
  if (after != calib.end()) {
    sum += after->ms;
    n += 1.0;
  }
  return n > 0.0 ? kCalibNominalMs * n / sum : 1.0;
}

// Applies the host-speed normalisation to every network and to the wall
// time (each calibration sample stands for the interval nearest to it).
void normalise(TimedRun& t) {
  for (NetRun& r : t.nets)
    r.norm_ms = r.ms * speed_factor(t.calib, r.start_s, r.start_s + r.ms / 1e3);
  for (std::size_t i = 0; i < t.calib.size(); ++i) {
    const double lo = i == 0 ? 0.0 : (t.calib[i - 1].t_s + t.calib[i].t_s) / 2;
    const double hi = i + 1 == t.calib.size()
                          ? t.wall_s
                          : (t.calib[i].t_s + t.calib[i + 1].t_s) / 2;
    t.norm_wall_s +=
        std::max(0.0, std::min(hi, t.wall_s) - lo) * kCalibNominalMs /
        t.calib[i].ms;
  }
}

// Keeps only what the checks and metrics need, so a long run does not hold
// every network's activations.
void retire(NetRun& run, const NetRun& ref, bool exact_cycles) {
  run.error = check(run, ref, exact_cycles);
  for (LayerRun& l : run.layers) {
    l.act.clear();
    l.act.shrink_to_fit();
  }
}

TimedRun time_serial(const WorkloadSpec& w, State& st, const Args& a) {
  TimedRun t;
  const auto epoch = Clock::now();
  if (a.trace) t.buffers.push_back(std::make_unique<SpanBuffer>(0, epoch));
  SerialRunner runner(w.hw, st.model);
  for (int n = 0; seconds_since(epoch) < a.seconds; ++n) {
    if (t.calib.empty() ||
        seconds_since(epoch) - t.calib.back().t_s >= kCalibEveryS)
      calibrate(epoch, t.calib);
    const int input = n % kInputs;
    NetRun run;
    run.traced = a.trace && n % 2 == 0;
    run.start_s = seconds_since(epoch);
    const auto t0 = Clock::now();
    runner.run(input, n, run.traced ? t.buffers[0].get() : nullptr, run);
    run.ms = seconds_since(t0) * 1e3;
    retire(run, st.refs[static_cast<std::size_t>(input)], true);
    t.nets.push_back(std::move(run));
  }
  t.wall_s = seconds_since(epoch);
  normalise(t);
  return t;
}

TimedRun time_served(State& st, const Args& a) {
  TimedRun t;
  const auto epoch = Clock::now();
  if (a.trace)
    for (int c = 0; c < kClients; ++c)
      t.buffers.push_back(std::make_unique<SpanBuffer>(c, epoch));
  std::atomic<bool> stop{false};
  std::atomic<int> next_id{0};
  std::mutex mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      std::vector<float> buf[2];
      std::vector<NetRun> mine;
      const std::string tenant = "client" + std::to_string(c);
      for (int k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const int input = (2 * c + k) % kInputs;
        const int id = next_id.fetch_add(1);
        NetRun run;
        run.traced = a.trace && k % 2 == 0;
        run.start_s = seconds_since(epoch);
        const auto t0 = Clock::now();
        run_served(*st.server, st.model, tenant, input, id,
                   run.traced ? t.buffers[static_cast<std::size_t>(c)].get()
                              : nullptr,
                   buf, run);
        run.ms = seconds_since(t0) * 1e3;
        retire(run, st.refs[static_cast<std::size_t>(input)], false);
        mine.push_back(std::move(run));
      }
      std::lock_guard lock(mu);
      for (NetRun& r : mine) t.nets.push_back(std::move(r));
    });
  while (seconds_since(epoch) < a.seconds) {
    calibrate(epoch, t.calib);
    std::this_thread::sleep_for(std::chrono::duration<double>(kCalibEveryS));
  }
  stop.store(true);
  for (std::thread& th : clients) th.join();
  t.wall_s = seconds_since(epoch);
  normalise(t);
  return t;
}

// Everything one run measured, for the three reports below.
struct Measured {
  const WorkloadSpec& w;
  const Args& a;
  std::vector<double> setup_s{}, norm_setup_s{};  // per set-up repetition
  std::unique_ptr<State> st{};
  TimedRun t{};
  StreamTableCounts st0{}, st1{};           // around the timed phase
  geo::serve::ServeStats ss0{}, ss1{};      // around the timed phase
  std::map<std::string, int> failures{};    // failed networks by error
  std::int64_t failed = 0;
  // Network wall times; the normalised ones of untraced networks only.
  std::vector<double> untraced_ms{}, traced_ms{}, norm_ms{};

  double nets() const { return static_cast<double>(t.nets.size()); }
  // The server's own ledger (warm-up included): anything it refused,
  // degraded or failed must also have shown up as a failed network.
  std::int64_t served_not_ok() const {
    return ss1.failed + ss1.degraded + ss1.shed_queue + ss1.shed_quota +
           ss1.rejected_invalid + ss1.deadline_expired;
  }
};

Metrics end_to_end_metrics(const Measured& r) {
  Metrics m;
  const double nets = r.nets();
  // Host-speed-normalised (see kCalibNominalMs). Serial: networks per second
  // of network execution; served: completed networks over the normalised
  // wall time of the closed loop.
  double sum_ms = 0.0;
  for (double v : r.norm_ms) sum_ms += v;
  m["networks_per_s"] = {r.w.serve ? nets / r.t.norm_wall_s
                                   : 1e3 * nets / std::max(sum_ms, 1e-9),
                         "1/s"};
  m["network_ms_p50"] = {percentile(r.norm_ms, 0.5), "ms"};
  m["network_ms_p90"] = {percentile(r.norm_ms, 0.9), "ms"};
  // Mean over the timed networks. Serial runs are checked equal to the
  // reference per layer; served ones are not, since a batched member may
  // legitimately be charged less (today it is charged the same).
  double cycles = 0.0;
  for (const NetRun& n : r.t.nets) cycles += static_cast<double>(n.cycles());
  m["sim_cycles_per_network"] = {cycles / std::max(1.0, nets), "cycles"};
  m["ok_share"] = {
      nets > 0 ? (nets - static_cast<double>(r.failed)) / nets : 0.0, "share"};
  m["setup_s"] = {median(r.norm_setup_s), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

// Per-layer metrics from the traced networks' spans and the run's counters;
// also prints the self-time table and writes the Chrome trace.
Metrics per_layer_metrics(const Measured& r) {
  const WorkloadSpec& w = r.w;
  const TimedRun& t = r.t;
  std::vector<const SpanBuffer*> bufs;
  for (const auto& b : t.buffers) bufs.push_back(b.get());
  const SelfTimes self = self_times(bufs);
  auto phase_ns = [&](const char* name, int layer) {
    auto it = self.by_phase.find({name, layer});
    return it == self.by_phase.end() ? 0.0 : median(it->second);
  };
  auto net_ms = [&](const char* name) {
    auto it = self.per_network.find(name);
    return it == self.per_network.end() ? 0.0 : median(it->second) / 1e6;
  };

  Metrics m;
  m["arch.prepare_ms"] = {net_ms("arch.prepare_conv"), "ms"};
  m["arch.tiles_ms"] = {net_ms("exec.run_all"), "ms"};
  m["arch.finish_ms"] = {net_ms("arch.finish"), "ms"};
  m["bench.chain_ms"] = {net_ms("bench.chain"), "ms"};
  m["bench.trace_overhead_us"] = {
      (median(r.traced_ms) - median(r.untraced_ms)) * 1e3, "us"};
  std::int64_t tiles = 0;
  for (const LayerRun& l : r.st->refs.front().layers) tiles += l.tiles;
  m["arch.tiles_per_network"] = {w.serve ? 0.0 : static_cast<double>(tiles),
                                 "count"};

  // Simulated statistics per network, averaged over the timed networks.
  MachineStats sum;
  std::map<std::string, double> layer_cycles;
  for (const NetRun& n : t.nets)
    for (std::size_t li = 0; li < n.layers.size(); ++li) {
      const MachineStats& s = n.layers[li].stats;
      sum.compute_cycles += s.compute_cycles;
      sum.stall_cycles += s.stall_cycles;
      sum.nearmem_cycles += s.nearmem_cycles;
      sum.act_buffer_fills += s.act_buffer_fills;
      sum.wgt_buffer_fills += s.wgt_buffer_fills;
      layer_cycles[w.net.layers[li].name] +=
          static_cast<double>(s.total_cycles);
    }
  const double denom = std::max(1.0, r.nets());
  m["arch.sim_compute_cycles"] = {sum.compute_cycles / denom, "cycles"};
  m["arch.sim_stall_cycles"] = {sum.stall_cycles / denom, "cycles"};
  m["arch.sim_nearmem_cycles"] = {sum.nearmem_cycles / denom, "cycles"};
  m["arch.act_buffer_fills"] = {sum.act_buffer_fills / denom, "count"};
  m["arch.wgt_buffer_fills"] = {sum.wgt_buffer_fills / denom, "count"};

  for (const std::string& name : all_layer_names()) {
    int li = -1;
    for (std::size_t i = 0; i < w.net.layers.size(); ++i)
      if (w.net.layers[i].name == name) li = static_cast<int>(i);
    const double macs =
        li < 0 ? 1.0
               : static_cast<double>(
                     w.net.layers[static_cast<std::size_t>(li)].macs());
    const std::string p = "arch." + name + ".";
    m[p + "prepare_us"] = {phase_ns("arch.prepare_conv", li) / 1e3, "us"};
    m[p + "tiles_ns_per_mac"] = {phase_ns("exec.run_all", li) / macs,
                                 "ns/MAC"};
    m[p + "finish_us"] = {phase_ns("arch.finish", li) / 1e3, "us"};
    m[p + "sim_cycles"] = {layer_cycles[name] / denom, "cycles"};

    std::vector<double> q, e;
    if (li >= 0)
      for (const NetRun& n : t.nets) {
        q.push_back(n.layers[static_cast<std::size_t>(li)].queue_us);
        e.push_back(n.layers[static_cast<std::size_t>(li)].exec_us);
      }
    m["serve." + name + ".queue_us_p50"] = {median(q), "us"};
    m["serve." + name + ".exec_us_p50"] = {median(e), "us"};
  }

  std::vector<double> q_net, e_net;
  for (const NetRun& n : t.nets) {
    double q = 0.0, e = 0.0;
    for (const LayerRun& l : n.layers) {
      q += l.queue_us;
      e += l.exec_us;
    }
    q_net.push_back(q / 1e3);
    e_net.push_back(e / 1e3);
  }
  m["serve.queue_ms_p50"] = {w.serve ? percentile(q_net, 0.5) : 0.0, "ms"};
  m["serve.queue_ms_p90"] = {w.serve ? percentile(q_net, 0.9) : 0.0, "ms"};
  m["serve.exec_ms_p50"] = {w.serve ? percentile(e_net, 0.5) : 0.0, "ms"};
  // Server counters over the timed phase only (the warm-up is excluded).
  const auto requests = static_cast<double>(r.ss1.completed - r.ss0.completed);
  const auto batches = static_cast<double>(r.ss1.batches - r.ss0.batches);
  const auto batched =
      static_cast<double>(r.ss1.batched_requests - r.ss0.batched_requests);
  m["serve.batch_occupancy"] = {batches > 0 ? batched / batches : 0.0,
                                "requests"};
  m["serve.batched_share"] = {requests > 0 ? batched / requests : 0.0,
                              "share"};
  m["serve.requests"] = {requests, "count"};
  m["serve.degraded"] = {static_cast<double>(r.ss1.degraded - r.ss0.degraded),
                         "count"};
  m["serve.failovers"] = {
      static_cast<double>(r.ss1.failovers - r.ss0.failovers), "count"};

  const double hits = static_cast<double>(r.st1.hits - r.st0.hits);
  const double misses = static_cast<double>(r.st1.misses - r.st0.misses);
  m["sc.stream_table_hits"] = {hits / denom, "count"};
  m["sc.stream_table_misses"] = {misses / denom, "count"};
  m["sc.stream_table_hit_ratio"] = {
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["sc.stream_table_build_ms"] = {
      static_cast<double>(r.st1.build_ns - r.st0.build_ns) / 1e6 / denom,
      "ms"};
  m["host.calib_ms"] = {median(t.calib_ms()), "ms"};

  // Self-time table: where a traced network's time goes, per layer.
  const double net_ns = median(self.network_ns);
  std::printf("\n%-18s %-7s %12s %8s\n", "span", "layer", "self us p50",
              "share");
  for (const auto& [key, v] : self.by_phase) {
    const double med = median(v);
    const std::string layer =
        key.second < 0
            ? std::string("-")
            : w.net.layers[static_cast<std::size_t>(key.second)].name;
    std::printf("%-18s %-7s %12.1f %7.1f%%\n", key.first.c_str(),
                layer.c_str(), med / 1e3, 100.0 * med / net_ns);
  }
  std::printf("%-18s %-7s %12.1f\n", "network (total)", "-", net_ns / 1e3);
  for (const char* phase : {"arch.prepare_conv", "exec.run_all",
                            "arch.finish", "bench.chain", "serve.run"})
    std::printf("%-26s share of network: %5.1f%%\n", phase,
                100.0 * net_ms(phase) * 1e6 / net_ns);

  if (!r.a.trace_out.empty() && !write_chrome_trace(r.a.trace_out, bufs))
    std::fprintf(stderr, "netbench: cannot write %s\n",
                 r.a.trace_out.c_str());
  return m;
}

// The stamp line: effective configuration, raw timings and counts.
std::string stamp_json(const Measured& r) {
  const WorkloadSpec& w = r.w;
  std::string stamp;
  auto field = [&stamp](const char* key, const std::string& json) {
    stamp += (stamp.empty() ? "\"" : ", \"") + std::string(key) + "\": " + json;
  };
  auto str = [](const std::string& v) { return "\"" + json_escape(v) + "\""; };
  auto env = [&str](const char* name) {
    const char* v = std::getenv(name);
    return v ? str(v) : std::string("null");
  };
  std::string fail_list;
  for (const auto& [what, n] : r.failures)
    fail_list += (fail_list.empty() ? "" : ", ") + str(what) + ": " +
                 std::to_string(n);
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint(r.st->refs)));
  const std::vector<double> calib = r.t.calib_ms();
  field("workload", str(w.name));
  field("seed", std::to_string(r.a.seed));
  field("seconds", num(r.a.seconds));
  field("trace", r.a.trace ? "1" : "0");
  field("hw", str(w.hw_name));
  field("network", str(w.net.name));
  field("stream_len", "{\"pool\": " + std::to_string(w.hw.stream_len_pool) +
                          ", \"conv\": " + std::to_string(w.hw.stream_len) +
                          ", \"output\": " +
                          std::to_string(w.hw.stream_len_output) + "}");
  field("simd", str(geo::sc::simd::to_string(geo::sc::simd::active())));
  field("threads", std::to_string(geo::exec::ThreadPool::instance().size()));
  field("stream_table", geo::sc::stream_table_enabled() ? "1" : "0");
  field("env_GEO_THREADS", env("GEO_THREADS"));
  field("env_GEO_SIMD", env("GEO_SIMD"));
  field("env_GEO_STREAM_TABLE", env("GEO_STREAM_TABLE"));
  field("env_GEO_FAULTS_neutralised", env("GEO_FAULTS"));
  field("serve",
        w.serve ? str(r.st->server->options().to_string()) : "null");
  field("clients", std::to_string(w.serve ? kClients : 1));
  field("networks", std::to_string(r.t.nets.size()));
  field("untraced_samples", std::to_string(r.untraced_ms.size()));
  field("traced_samples", std::to_string(r.traced_ms.size()));
  field("raw_network_ms_p50", num(percentile(r.untraced_ms, 0.5)));
  field("raw_network_ms_p90", num(percentile(r.untraced_ms, 0.9)));
  field("raw_networks_per_s", num(r.nets() / r.t.wall_s));
  field("wall_s", num(r.t.wall_s));
  field("norm_wall_s", num(r.t.norm_wall_s));
  field("calib_samples", std::to_string(calib.size()));
  field("calib_ms_p10_p50_p90", "[" + num(percentile(calib, 0.1)) + ", " +
                                    num(percentile(calib, 0.5)) + ", " +
                                    num(percentile(calib, 0.9)) + "]");
  field("calib_nominal_ms", num(kCalibNominalMs));
  std::string raw_setup;
  for (double v : r.setup_s) raw_setup += (raw_setup.empty() ? "" : ", ") + num(v);
  field("raw_setup_s", "[" + raw_setup + "]");
  field("output_fingerprint", str(fp));
  field("served_not_ok", std::to_string(r.served_not_ok()));
  field("failures", "{" + fail_list + "}");
  return "{\"netbench_stamp\": {" + stamp + ", " +
         activation_profile(r.st->refs) + "}}";
}

int run_main(const Args& a) {
  const std::optional<WorkloadSpec> found = find_workload(a.workload);
  if (!found) {
    std::fprintf(stderr, "netbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Measured r{*found, a};
  const WorkloadSpec& w = r.w;

  // The workloads are defined at one lane; thread scaling is not measured
  // (see README.md). Pinned here so GEO_THREADS cannot change a number.
  geo::exec::ScopedThreads one_lane(1);
  // Serial runs and the set-up references execute with no fault model,
  // whatever GEO_FAULTS says; replicas get a zero-rate domain in set_up.
  geo::fault::ScopedFaultInjection no_faults(nullptr);

  // ---- set-up, repeated; the last one is kept ---------------------------
  // setup_s is normalised like the timed phase, by the mean of calibration
  // samples taken just before and just after each set-up.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    r.st.reset();
    std::string error;
    const double before = calib_ms();
    const auto t0 = Clock::now();
    r.st = set_up(w, a.seed, error);
    r.setup_s.push_back(seconds_since(t0));
    r.norm_setup_s.push_back(r.setup_s.back() * 2.0 * kCalibNominalMs /
                             (before + calib_ms()));
    if (!r.st) {
      std::fprintf(stderr, "netbench: set-up failed: %s\n", error.c_str());
      return 3;
    }
  }

  // ---- timed phase --------------------------------------------------------
  r.st0 = StreamTableCounts{};
  if (w.serve) r.ss0 = r.st->server->stats();
  r.t = w.serve ? time_served(*r.st, a) : time_serial(w, *r.st, a);
  r.st1 = StreamTableCounts{};
  if (w.serve) r.ss1 = r.st->server->stats();

  for (const NetRun& n : r.t.nets) {
    if (!n.error.empty()) {
      ++r.failed;
      ++r.failures[n.error];
    }
    (n.traced ? r.traced_ms : r.untraced_ms).push_back(n.ms);
    if (!n.traced) r.norm_ms.push_back(n.norm_ms);
  }

  const Metrics m = a.trace ? per_layer_metrics(r) : end_to_end_metrics(r);
  std::printf("%s\n", stamp_json(r).c_str());
  const bool correct =
      !r.t.nets.empty() && r.failed == 0 && r.served_not_ok() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", r.t.nets.size(),
      static_cast<long long>(r.failed), metrics_json(m).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace netbench

int main(int argc, char** argv) {
  const auto args = netbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: netbench --workload <cnn4_serial|lenet5_serial|"
                 "lenet5_serve> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }
  return netbench::run_main(*args);
}
