// Workloads of the replay benchmark: the trained model each one serves, the
// materialized packet trace made from the run's seed, and the system
// configuration it is replayed against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fenix_system.hpp"
#include "net/packet.hpp"
#include "nn/featurizer.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"

namespace perfbench {

/// Names accepted by --workload, in canonical order.
const std::vector<std::string>& workload_names();

/// One fully set-up workload. Owns the model the system binds to, so it must
/// outlive every FenixSystem built from `config`.
struct Workload {
  std::string name;
  std::size_t num_classes = 0;
  /// Flow labels are drawn from the dataset profile the CNN was trained on,
  /// so forwarding accuracy means something (vpn_fig10 only; the scenario
  /// presets label flows by a hash of (seed, flow id)).
  bool learnable_labels = false;

  std::unique_ptr<fenix::nn::CnnClassifier> float_cnn;
  std::vector<fenix::nn::SeqSample> calibration;  ///< Training windows.
  std::unique_ptr<fenix::nn::QuantizedCnn> cnn;   ///< INT8, served.

  fenix::net::Trace trace;
  fenix::core::FenixSystemConfig config;

  double train_s = 0.0;     ///< Host seconds to train + quantize the CNN.
  double generate_s = 0.0;  ///< Host seconds to generate + materialize the trace.
  std::uint64_t trace_hash = 0;  ///< Fingerprint of every packet field.
};

/// Trains the workload's CNN (fixed seed: the model is part of the system
/// under test) and generates its trace from `seed`. `smoke` shrinks both so
/// a run takes seconds; smoke figures are for the self-test only.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

/// The INT4 twin of the workload's CNN, built from the same float weights
/// and calibration windows (the lifecycle shadow of the traced run).
std::unique_ptr<fenix::nn::QuantizedCnn> make_int4_shadow(const Workload& w);

}  // namespace perfbench
