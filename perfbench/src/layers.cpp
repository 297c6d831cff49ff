#include "layers.hpp"

#include <algorithm>
#include <chrono>

#include "core/model_pool.hpp"
#include "core/probability_model.hpp"
#include "net/reliable_link.hpp"
#include "sim/channel.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace fenix;
using Clock = std::chrono::steady_clock;

// Mirror windows replayed through the nn / engine / link layers: enough for
// a stable per-call mean, few enough that the traced run stays short.
constexpr std::size_t kMaxWindows = 16384;
// Each layer loop is timed this many times; the median is reported.
constexpr int kRepeats = 3;

// Results of timed loops are folded in here so no loop can be optimized away.
volatile std::int64_t g_sink = 0;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Median wall nanoseconds of `repeats` calls of `body`.
template <typename Body>
double median_ns(int repeats, Body&& body) {
  std::vector<double> runs;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    body();
    runs.push_back(ns_since(start));
  }
  return median(runs);
}

/// Drives a Data Engine over the trace exactly as the serial replay does:
/// the epoch barrier work every reconcile quantum, then on_packet.
template <typename OnOutput>
void drive_data_engine(core::DataEngine& de, const net::Trace& trace,
                       sim::SimDuration quantum, OnOutput&& on_output) {
  sim::SimTime last_epoch = 0;
  bool first = true;
  for (const net::PacketRecord& p : trace.packets) {
    if (first || p.timestamp >= last_epoch + quantum) {
      de.epoch_reconcile(p.timestamp);
      de.control_plane_tick(p.timestamp);
      last_epoch = p.timestamp;
      first = false;
    }
    on_output(de.on_packet(p));
  }
}

/// One Rate Limiter grant as the admission stage sees it.
struct Grant {
  std::size_t lane;
  std::uint32_t flow_hash;
  std::uint32_t slot;
  std::uint32_t dst_ip;
};

}  // namespace

void BarrierClock::at_time(sim::SimTime) {
  stamps_ns_.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now().time_since_epoch())
                           .count());
}

std::vector<double> BarrierClock::epoch_wall_us() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < stamps_ns_.size(); ++i) {
    out.push_back(static_cast<double>(stamps_ns_[i] - stamps_ns_[i - 1]) / 1e3);
  }
  return out;
}

LayerTimings time_layers(const Workload& w, std::size_t threads) {
  LayerTimings t;
  const sim::SimDuration quantum =
      std::max<sim::SimDuration>(1, w.config.reconcile_quantum);
  const double packets = static_cast<double>(w.trace.packets.size());

  // ---- Data Engine. The system is built only so the engine gets the same
  // resolved config (token rate V derived from the bound Model Engine).
  {
    core::FenixSystem sys(w.config, w.cnn.get(), nullptr);
    std::uint64_t grants = 0;
    const auto start = Clock::now();
    drive_data_engine(sys.data_engine(), w.trace, quantum,
                      [&](const core::DataEngineOutput& out) {
                        if (out.mirrored != nullptr) ++grants;
                      });
    t.data_engine_ns_per_pkt = ns_since(start) / packets;
    t.data_engine_grants = grants;
    t.flow_collisions = sys.data_engine().tracker().collisions();
  }

  // ---- Capture pass (untimed): every grant for the admission stage and an
  // evenly strided sample of mirror windows for the layers behind it.
  core::FenixSystem sys(w.config, w.cnn.get(), nullptr);
  core::DataEngine& de = sys.data_engine();
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, (t.data_engine_grants + kMaxWindows - 1) / kMaxWindows);
  std::vector<Grant> grants;
  grants.reserve(t.data_engine_grants);
  std::vector<net::FeatureVector> windows;
  std::vector<std::size_t> lanes;
  drive_data_engine(de, w.trace, quantum, [&](const core::DataEngineOutput& out) {
    if (out.mirrored == nullptr) return;
    const std::size_t lane = core::lane_of_slot(out.flow.index);
    if (grants.size() % stride == 0) {
      windows.push_back(*out.mirrored);
      lanes.push_back(lane);
    }
    grants.push_back({lane, out.flow.flow_hash, out.flow.index, out.mirrored->tuple.dst_ip});
  });
  if (windows.empty()) return t;
  const double n = static_cast<double>(windows.size());

  // ---- nn: per-window predict, batched predict, and the INT4 shadow.
  const std::size_t seq_len = w.cnn->config().seq_len;
  std::vector<nn::Token> flat(windows.size() * seq_len);
  std::vector<std::vector<nn::Token>> tokens(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    nn::tokenize_into(windows[i].sequence, seq_len, tokens[i]);
    std::copy(tokens[i].begin(), tokens[i].end(), flat.begin() + i * seq_len);
  }
  nn::Scratch scratch;
  std::vector<std::int16_t> single(windows.size());
  std::vector<std::int16_t> batched(windows.size());
  t.predict_ns = median_ns(kRepeats, [&] {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      single[i] = w.cnn->predict(tokens[i], scratch);
    }
  }) / n;
  constexpr std::size_t kBatch = 16;
  t.predict_batch_ns = median_ns(kRepeats, [&] {
    for (std::size_t i = 0; i < windows.size(); i += kBatch) {
      const std::size_t count = std::min(kBatch, windows.size() - i);
      w.cnn->predict_batch(flat.data() + i * seq_len, count, scratch, batched.data() + i);
    }
  }) / n;
  t.batch_matches_predict = single == batched;
  const auto shadow = make_int4_shadow(w);
  std::int64_t shadow_sum = 0;
  t.shadow_predict_ns = median_ns(kRepeats, [&] {
    for (const auto& tok : tokens) shadow_sum += shadow->predict(tok, scratch);
  }) / n;
  g_sink = g_sink + shadow_sum;

  // ---- Model Engine lane submit without the forward pass: submit_lane is
  // exactly submit_timed_lane (admission, FIFO and array timing, identifier
  // queue) followed by tokenize + predict. Fresh engine per repeat.
  {
    std::vector<double> runs;
    for (int r = 0; r < kRepeats; ++r) {
      core::FenixSystem fresh(w.config, w.cnn.get(), nullptr);
      core::ModelEngine& engine = fresh.model_engine();
      std::uint64_t admitted = 0;
      const auto start = Clock::now();
      for (std::size_t i = 0; i < windows.size(); ++i) {
        if (engine.submit_timed_lane(lanes[i], windows[i], windows[i].emitted_at)) ++admitted;
      }
      runs.push_back(ns_since(start));
      g_sink = g_sink + static_cast<std::int64_t>(admitted);
    }
    t.submit_ns = median(runs) / n;
  }

  // ---- InferenceBatcher hand-off with run_pipelined's T - 1 workers, minus
  // the batched compute it carries.
  {
    std::vector<double> per_call;
    for (int r = 0; r < kRepeats; ++r) {
      core::InferenceBatcher batcher(w.cnn.get(), nullptr, kBatch,
                                     threads > 1 ? threads - 1 : 0);
      const auto start = Clock::now();
      for (const auto& v : windows) batcher.enqueue(v.sequence);
      batcher.finish();
      per_call.push_back(ns_since(start) / n - t.predict_batch_ns);
      t.batches = batcher.batches_dispatched();
      for (std::size_t i = 0; i < windows.size(); ++i) {
        if (batcher.result(i) != single[i]) t.batch_matches_predict = false;
      }
    }
    t.handoff_ns = median(per_call);
  }

  // ---- One lane's reliable link, frames at the mirrors' emit times.
  t.link_send_ns = median_ns(kRepeats, [&] {
    sim::Channel channel(w.config.pcb_channel_bps / core::kCoordinationLanes,
                         w.config.pcb_propagation);
    net::ReliableLink link(channel, w.config.link);
    for (const auto& v : windows) link.send(v.emitted_at, v.wire_bytes());
  }) / n;

  // ---- Admission stage over every grant (ladder at its resting tier: the
  // fold that moves it runs only inside a replay's barriers).
  {
    core::AdmissionConfig cfg = w.config.admission;
    cfg.table_slots = std::size_t{1} << w.config.data_engine.tracker.index_bits;
    std::uint64_t admitted = 0;
    const double total = median_ns(kRepeats, [&] {
      core::AdmissionController admission(cfg);
      for (const Grant& g : grants) {
        admitted += admission.on_grant(g.lane, g.flow_hash, g.slot, g.dst_ip) ? 1 : 0;
      }
    });
    g_sink = g_sink + static_cast<std::int64_t>(admitted);
    t.on_grant_ns = grants.empty() ? 0.0 : total / static_cast<double>(grants.size());
  }

  // ---- Probability lookup table rebuild (the control-plane window's work).
  {
    const auto& dc = w.config.data_engine;
    core::ProbabilityLookupTable table(dc.prob_t_cells, dc.prob_c_cells, dc.prob_t_max_s,
                                       dc.prob_c_max, dc.prob_log_scale_c,
                                       dc.prob_log_scale_t);
    constexpr int kRebuilds = 64;
    core::TrafficStats stats;
    stats.token_rate_v = de.token_rate_v();
    stats.packet_rate_q = w.trace.offered_pps();
    t.rebuild_ns = median_ns(kRepeats, [&] {
      for (int i = 0; i < kRebuilds; ++i) {
        stats.flow_count_n = 1000.0 + 37.0 * i;
        table.rebuild(stats);
      }
    }) / kRebuilds;
  }
  return t;
}

}  // namespace perfbench
