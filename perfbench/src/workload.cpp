#include "workload.hpp"

#include <chrono>
#include <stdexcept>

#include "net/packet_source.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/scenario.hpp"
#include "trafficgen/synthesizer.hpp"

namespace perfbench {
namespace {

using namespace fenix;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The model is part of the system under test, not of the input: every run
// serves the same CNN whatever --seed says.
constexpr std::uint64_t kModelSeed = 0xf10;

// ddos_overload: bench_overload's most overloaded point. Flows and offered
// load shrink by kOverloadShrink and the Model Engine's initiation interval
// stretches by the same factor, as bench_overload does; kOverloadMultiplier
// then drives the flood past the knee. kOverloadHorizon admits that many
// times more flows at the same offered load: the same overload runs for a
// longer horizon, so one replay is long enough to time.
constexpr std::uint32_t kOverloadShrink = 50;
constexpr std::uint32_t kOverloadHorizon = 2;
constexpr double kOverloadMultiplier = 16.0;

nn::CnnConfig cnn_config(std::size_t num_classes) {
  // bench_cnn_config: the paper's 3 conv + 2 FC layers at 1/4 width.
  nn::CnnConfig config;
  config.seq_len = 9;
  config.len_embed_dim = 12;
  config.ipd_embed_dim = 4;
  config.conv_channels = {16, 32, 64};
  config.kernel = 3;
  config.fc_dims = {128, 64};
  config.num_classes = num_classes;
  return config;
}

/// Trains only the CNN the workload serves (not the CNN+RNN pair the paper
/// benches train) and quantizes it to INT8.
void train_cnn(Workload& w, const trafficgen::DatasetProfile& profile, bool smoke) {
  trafficgen::SynthesisConfig synth;
  synth.total_flows = smoke ? 300 : 1500;
  synth.seed = kModelSeed;
  synth.min_flows_per_class = smoke ? 6 : 40;
  const auto train = trafficgen::synthesize_flows(profile, synth);
  w.calibration = trafficgen::make_packet_samples(train, 9, 3, 8);

  nn::TrainOptions opts;
  opts.epochs = 1;
  opts.lr = 0.01f;
  opts.cap_per_class = 1500;
  opts.seed = kModelSeed;
  w.float_cnn = std::make_unique<nn::CnnClassifier>(cnn_config(w.num_classes), kModelSeed);
  w.float_cnn->fit(w.calibration, opts);
  w.cnn = std::make_unique<nn::QuantizedCnn>(*w.float_cnn, w.calibration);
}

/// Figure 10's 8000-flow point: ISCX-VPN flows of <= 48 packets, 8x gap
/// compression, a 128k-slot Flow Info Table.
void make_vpn_fig10(Workload& w, const trafficgen::DatasetProfile& profile,
                    std::uint64_t seed, bool smoke) {
  trafficgen::SynthesisConfig synth;
  synth.total_flows = smoke ? 400 : 8000;
  synth.seed = seed * 0x9e3779b97f4a7c15ULL + 0x5ca1e;
  synth.min_flows_per_class = smoke ? 6 : 40;
  synth.max_pkts_per_flow = 48;
  const auto flows = trafficgen::synthesize_flows(profile, synth);
  trafficgen::TraceConfig trace_config;
  trace_config.flow_arrival_rate_hz = static_cast<double>(flows.size()) / 2.0;
  trace_config.gap_time_scale = 1.0 / 8.0;
  trace_config.seed = seed ^ 0x7ace;
  w.trace = trafficgen::assemble_trace(flows, trace_config);

  w.config.data_engine.tracker.index_bits = 17;
  w.config.data_engine.window_tw = sim::milliseconds(50);
  w.learnable_labels = true;
}

/// A scenario preset, streamed and then materialized so generation never
/// runs inside a timed replay.
void materialize_scenario(Workload& w, trafficgen::ScenarioConfig scenario,
                          std::uint64_t seed) {
  scenario.seed = seed;
  scenario.num_classes = static_cast<std::uint16_t>(w.num_classes);
  trafficgen::ScenarioSource source(scenario);
  w.trace = net::materialize(source);
}

/// heavy_tailed at its full 2 Mpps offered load with a tenth of the flows.
void make_heavy_tailed(Workload& w, std::uint64_t seed, bool smoke) {
  trafficgen::ScenarioConfig scenario = trafficgen::scenario_preset("heavy_tailed");
  scenario.flows /= smoke ? 500 : 10;
  materialize_scenario(w, scenario, seed);
  // bench_scenarios' system: the 128k-slot table the preset overruns.
  w.config.data_engine.tracker.index_bits = 17;
  w.config.data_engine.window_tw = sim::milliseconds(50);
}

/// ddos_flood past the knee against bench_overload's overload system:
/// admission ladder armed, Rate Limiter mis-calibrated to ~3 Mpps, Model
/// Engine II stretched so the flood overruns the lane FIFOs.
void make_ddos_overload(Workload& w, std::uint64_t seed, bool smoke) {
  trafficgen::ScenarioConfig scenario = trafficgen::scenario_preset("ddos_flood");
  scenario.flows = scenario.flows / kOverloadShrink * kOverloadHorizon / (smoke ? 20 : 1);
  scenario.offered_pps = scenario.offered_pps / kOverloadShrink * kOverloadMultiplier;
  materialize_scenario(w, scenario, seed);

  w.config.data_engine.tracker.index_bits = 15;
  w.config.data_engine.window_tw = sim::milliseconds(50);
  w.config.data_engine.fpga_inference_rate_hz = 3e6;
  w.config.model_engine.ii_override_cycles = 360 * kOverloadShrink;
  w.config.recovery.result_deadline = sim::microseconds(2500);
  w.config.admission.enabled = true;
}

/// Order-sensitive hash over every field of every packet.
std::uint64_t hash_trace(const net::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const net::PacketRecord& p : trace.packets) {
    mix(p.timestamp);
    mix(p.orig_timestamp);
    mix((std::uint64_t{p.tuple.src_ip} << 32) | p.tuple.dst_ip);
    mix((std::uint64_t{p.tuple.src_port} << 24) | (std::uint64_t{p.tuple.dst_port} << 8) |
        p.tuple.proto);
    mix((std::uint64_t{p.wire_length} << 48) |
        (static_cast<std::uint64_t>(static_cast<std::uint16_t>(p.label)) << 32) |
        p.flow_id);
  }
  return h;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"vpn_fig10", "heavy_tailed",
                                                 "ddos_overload"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  const auto profile = trafficgen::DatasetProfile::iscx_vpn();
  Workload w;
  w.name = name;
  w.num_classes = profile.num_classes();

  auto start = Clock::now();
  train_cnn(w, profile, smoke);
  w.train_s = seconds_since(start);

  start = Clock::now();
  if (name == "vpn_fig10") {
    make_vpn_fig10(w, profile, seed, smoke);
  } else if (name == "heavy_tailed") {
    make_heavy_tailed(w, seed, smoke);
  } else if (name == "ddos_overload") {
    make_ddos_overload(w, seed, smoke);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.generate_s = seconds_since(start);
  w.trace_hash = hash_trace(w.trace);
  return w;
}

std::unique_ptr<nn::QuantizedCnn> make_int4_shadow(const Workload& w) {
  return std::make_unique<nn::QuantizedCnn>(*w.float_cnn, w.calibration,
                                            nn::Precision::kInt4);
}

}  // namespace perfbench
