// The traced run: each layer of the replay driven on its own through its
// public entry points, every call batch timed with steady_clock from here,
// outside the program. Nothing in the library is instrumented, so the
// untimed replays of the end-to-end run are untouched by this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fenix_system.hpp"
#include "workload.hpp"

namespace perfbench {

/// Per-layer costs and counts of one workload. Host times are nanoseconds
/// of wall clock per call; counts come from the layer itself.
struct LayerTimings {
  // Data Engine alone: on_packet plus the 1 ms epoch_reconcile /
  // control_plane_tick schedule the replay runs it on.
  double data_engine_ns_per_pkt = 0.0;
  std::uint64_t data_engine_grants = 0;  ///< Rate Limiter grants (mirrors w/o ladder).
  std::uint64_t flow_collisions = 0;

  // Per mirror window (an evenly strided sample of at most 16384 windows).
  double predict_ns = 0.0;
  double predict_batch_ns = 0.0;  ///< Per window, at batch 16.
  double shadow_predict_ns = 0.0; ///< INT4 twin, per window.
  double submit_ns = 0.0;         ///< ModelEngine lane submit minus predict.
  double handoff_ns = 0.0;        ///< InferenceBatcher enqueue+finish minus compute.
  std::uint64_t batches = 0;
  double link_send_ns = 0.0;
  double on_grant_ns = 0.0;
  double rebuild_ns = 0.0;
  /// False when predict_batch disagreed with per-window predict.
  bool batch_matches_predict = true;
};

/// Times every layer of `w` in isolation. `threads` is the fixed T of the
/// end-to-end run (the batcher gets T - 1 workers, as run_pipelined does).
LayerTimings time_layers(const Workload& w, std::size_t threads);

/// Wall-clock stamps of every epoch barrier of a run_pipelined replay
/// (RunHooks::at_time fires once per barrier on the coordinator).
class BarrierClock final : public fenix::core::RunHooks {
 public:
  void at_time(fenix::sim::SimTime now) override;
  /// Host microseconds between consecutive barriers.
  std::vector<double> epoch_wall_us() const;

 private:
  std::vector<std::int64_t> stamps_ns_;
};

}  // namespace perfbench
