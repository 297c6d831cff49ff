// FENIX replay benchmark.
//
//   fenix_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 measures the end-to-end metrics: host packets/s of the serial
// run() and of run_pipelined() at 1 and 4 pipes, set-up time, peak RSS, and
// the simulated verdict latency / served ratio of the workload. --trace 1 is
// the separate traced run that times each layer on its own and derives the
// per-layer metrics. Either way the last stdout line is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// Every replay is checked (serial report against the standard invariants and
// the drop/shed conservation residuals, each pipelined report bit-identical
// to the serial one); a failed check sets "correct": false and exit code 1.
//
// Five sources of run-to-run noise are designed out:
//   1. oversubscription: run_pipelined gets a fixed T = kThreads pool workers
//      and starts T - 1 batcher workers plus the coordinator; the run refuses
//      to measure unless 2T <= nproc;
//   2. cold first replay: each configuration's first replay is an untimed,
//      checked warm-up;
//   3. generation in the timed region: traces are generated from --seed and
//      materialized during set-up, which setup_s reports;
//   4. short, noisy replays: each configuration replays for its share of
//      --seconds (at least kMinReplays times), interleaved round-robin, and
//      reports its median replay;
//   5. meaningless metrics: forwarding F1 is only computed (and gated) where
//      labels are learnable, and no fan-in queue peak is published.
#include <malloc.h>
#include <sched.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace fenix;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Pool workers of every run_pipelined replay. With the T - 1 batcher
/// workers and the coordinator that makes 2T runnable threads.
constexpr std::size_t kThreads = 2;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 7;
/// Timed replays per configuration, at least.
constexpr std::size_t kMinReplays = 3;
/// Plain / barrier-clocked pipes4 replay pairs of the traced run.
constexpr std::size_t kTracedPairs = 5;
/// Forwarding macro-F1 below this on a learnable workload means the replay
/// no longer classifies (the trained CNN scores well above it).
constexpr double kMinForwardF1 = 0.5;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: fenix_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      errno = 0;
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-' || errno == ERANGE) {
        usage("bad --seed " + value);
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("bad --seconds " + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  bool known = false;
  for (const auto& name : workload_names()) known = known || name == a.workload;
  if (!known) usage("unknown workload " + a.workload);
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Opens a new peak-RSS window: returns the heap's free pages to the kernel,
/// then resets the kernel's high-water mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

/// A memory line of /proc/self/status ("VmRSS", "VmHWM"), in MB.
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(key + ":", 0) == 0) return std::stod(line.substr(key.size() + 1)) / 1024.0;
  }
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

/// The host the figures were taken on. nn picks its SIMD rung internally and
/// does not report it, so the CPU flags are probed here.
void print_fingerprint(std::size_t nproc) {
  __builtin_cpu_init();
  std::cout << "host: nproc=" << nproc << " threads_T=" << kThreads
            << " avx2=" << (__builtin_cpu_supports("avx2") ? 1 : 0)
            << " avx512bw=" << (__builtin_cpu_supports("avx512bw") ? 1 : 0)
            << " avx512vnni=" << (__builtin_cpu_supports("avx512vnni") ? 1 : 0)
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << PERFBENCH_COMPILER
            << "\"\n";
}

/// Counts checked replays and the ones that failed any check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const auto& p : problems) std::cerr << "CHECK FAILED [" << what << "]: " << p << "\n";
  }
};

std::uint64_t labeled_flows(const net::Trace& trace) {
  std::uint64_t n = 0;
  for (const auto& f : trace.flows) n += f.label != net::kUnlabeled ? 1 : 0;
  return n;
}

/// Checks a serial report on its own: the standard invariant registry, the
/// drop and shed conservation residuals, and forwarding accuracy where it
/// means something.
std::vector<std::string> check_serial(const Workload& w, const core::FenixSystemConfig& config,
                                      const core::FenixSystem& sys,
                                      const core::RunReport& report) {
  std::vector<std::string> problems;
  const net::ReliableLinkStats to_stats = sys.link_stats_to_fpga();
  const net::ReliableLinkStats from_stats = sys.link_stats_from_fpga();
  core::InvariantContext ctx{report};
  ctx.trace_packets = w.trace.packets.size();
  ctx.trace_flows = labeled_flows(w.trace);
  ctx.to_link = &to_stats;
  ctx.from_link = &from_stats;
  ctx.reorder_window = config.link.reorder_window;
  ctx.link_max_retransmits = config.link.max_retransmits;
  ctx.replay_max_retransmits = config.recovery.max_retransmits;
  ctx.lifecycle_enabled = config.lifecycle.enabled();
  ctx.lifecycle_blackout = config.lifecycle.swap_blackout;
  ctx.admission_tracking = true;
  for (const auto& v : core::InvariantRegistry::standard().check(ctx)) {
    problems.push_back("invariant " + v.name + ": " + v.detail);
  }
  // The conservation residuals of the health table fenix_replay prints.
  const telemetry::MetricRegistry health = sys.health_metrics(report);
  for (const char* residual : {"drop_unattributed", "shed_unattributed"}) {
    if (const std::uint64_t v = health.counter(residual); v != 0) {
      problems.push_back(std::string(residual) + " = " + std::to_string(v));
    }
  }
  if (report.packets != w.trace.packets.size()) {
    problems.push_back("replayed " + std::to_string(report.packets) + " of " +
                       std::to_string(w.trace.packets.size()) + " packets");
  }
  if (w.learnable_labels && report.packet_confusion.macro_f1() < kMinForwardF1) {
    problems.push_back("forward_macro_f1 " + std::to_string(report.packet_confusion.macro_f1()) +
                       " < " + std::to_string(kMinForwardF1));
  }
  return problems;
}

std::vector<std::string> check_identical(const core::RunReport& reference,
                                         const core::RunReport& report) {
  if (const auto d = core::first_divergence(reference, report)) return {"diverged: " + *d};
  return {};
}

enum class Mode { kSerial, kPipes1, kPipes4 };

/// One replay on a freshly constructed system; construction is untimed.
struct Replay {
  double wall_s = 0.0;
  std::optional<core::RunReport> report;
};

Replay replay(const Workload& w, Mode mode, core::RunHooks* hooks = nullptr,
              core::PipelineTelemetry* telemetry = nullptr) {
  core::FenixSystem sys(w.config, w.cnn.get(), nullptr);
  core::PipelineOptions opts;
  opts.pipes = mode == Mode::kPipes4 ? 4 : 1;
  opts.batch = 16;
  opts.threads = kThreads;
  Replay r;
  const auto start = Clock::now();
  if (mode == Mode::kSerial) {
    r.report.emplace(sys.run(w.trace, w.num_classes, hooks));
  } else {
    r.report.emplace(sys.run_pipelined(w.trace, w.num_classes, hooks, {}, opts));
  }
  r.wall_s = seconds_since(start);
  if (telemetry != nullptr) *telemetry = sys.pipeline_telemetry();
  return r;
}

/// The untimed serial reference replay every other replay is checked
/// against. Also returns the Model Engine's inference count.
core::RunReport reference_replay(const Workload& w, Checks& checks,
                                 std::uint64_t* inferences = nullptr) {
  core::FenixSystem sys(w.config, w.cnn.get(), nullptr);
  core::RunReport report = sys.run(w.trace, w.num_classes);
  checks.record("serial reference", check_serial(w, w.config, sys, report));
  if (inferences != nullptr) *inferences = sys.model_engine().combined_stats().inferences;
  return report;
}

void print_series(const std::string& name, const std::vector<double>& values,
                  const std::string& unit) {
  std::cout << "  " << name << ": n=" << values.size() << " median=" << median(values);
  if (values.size() >= 2) {
    const auto q = quartiles(values);
    std::cout << " q1=" << q[0] << " q3=" << q[2] << " spread=" << relative_spread(values);
  }
  std::cout << " " << unit << " [";
  for (const double v : values) std::cout << " " << v;
  std::cout << " ]\n";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- end to end

void run_end_to_end(const Args& args, Checks& checks, MetricSet& metrics) {
  // Set-up, several times: training, generation + materialization, first
  // construction. The first set-up's workload is the one replayed; the
  // others must reproduce it bit for bit.
  std::vector<double> setup_s;
  std::optional<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    Workload candidate = make_workload(args.workload, args.seed, args.smoke);
    { core::FenixSystem first(candidate.config, candidate.cnn.get(), nullptr); }
    setup_s.push_back(seconds_since(start));
    std::cout << "setup " << i << ": " << setup_s.back() << " s (train " << candidate.train_s
              << " s, generate " << candidate.generate_s << " s)\n";
    if (!w) {
      w.emplace(std::move(candidate));
      continue;
    }
    std::vector<std::string> problems;
    if (candidate.trace_hash != w->trace_hash) {
      problems.push_back("set-up " + std::to_string(i) +
                         " generated a different trace for the same seed");
    }
    checks.record("setup determinism", problems);
  }
  // peak_rss_mb is the peak over the untimed replays that follow, one of
  // each configuration. It leaves out the set-ups (training, extra copies of
  // the trace) and the timed replays, whose number depends on host speed and
  // whose freed pages the per-thread malloc arenas keep.
  reset_peak_rss();
  std::cout << "resident after set-up: " << status_mb("VmRSS") << " MB\n";
  std::cout << "workload " << w->name << ": " << w->trace.packets.size() << " packets, "
            << w->trace.flows.size() << " flows, offered "
            << w->trace.offered_pps() << " pps (sim, open loop)\n";

  // Warm-ups: the serial reference, then one checked pipes1 and pipes4
  // replay, all discarded from timing.
  const core::RunReport reference = reference_replay(*w, checks);
  std::cout << "mirrored " << reference.mirrors << " of " << reference.packets << " packets\n";
  for (const Mode mode : {Mode::kPipes1, Mode::kPipes4}) {
    const Replay r = replay(*w, mode);
    checks.record("warm-up", check_identical(reference, *r.report));
  }
  const double peak_rss_mb = status_mb("VmHWM");

  // Timed replays, interleaved round-robin so slow drift of the host hits
  // every configuration alike. Each configuration replays until it has spent
  // its share of --seconds (and at least kMinReplays times); serial replays
  // are the slowest and noisiest, so they get 60% of the budget.
  struct Series {
    const char* name;
    Mode mode;
    double share;
    std::vector<double> pps;
    double spent_s = 0.0;
  };
  std::vector<Series> series = {{"serial_pps", Mode::kSerial, 0.6, {}},
                                {"pipes1_pps", Mode::kPipes1, 0.2, {}},
                                {"pipes4_pps", Mode::kPipes4, 0.2, {}}};
  for (bool more = true; more;) {
    more = false;
    for (Series& s : series) {
      if (s.pps.size() >= kMinReplays && s.spent_s >= s.share * args.seconds) continue;
      more = true;
      const Replay r = replay(*w, s.mode);
      s.spent_s += r.wall_s;
      s.pps.push_back(static_cast<double>(r.report->packets) / r.wall_s);
      checks.record(s.name, check_identical(reference, *r.report));
    }
  }

  std::cout << "timed replays (host packets/s, closed loop on the host):\n";
  for (const Series& s : series) {
    print_series(s.name, s.pps, "packets/s");
    metrics.add(s.name, median(s.pps), "packets/s");
  }
  print_series("setup_s", setup_s, "s");
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("peak_rss_mb", peak_rss_mb, "MB");

  // Simulated-time results of the model: they repeat exactly for a seed and
  // say nothing about host speed.
  const auto& e2e = reference.end_to_end;
  // The median is the model's fixed no-queueing latency (identical on every
  // workload and seed), so it is printed but the mean, which carries the
  // queueing, is the metric.
  metrics.add("verdict_mean_us", e2e.mean_us(), "sim_us");
  metrics.add("verdict_p999_us", e2e.p999_us(), "sim_us");
  std::cout << "verdict latency (sim): mean=" << e2e.mean_us() << " us p50=" << e2e.p50_us()
            << " us p999=" << e2e.p999_us() << " us over " << e2e.count() << " verdicts\n";
  metrics.add("verdict_served_ratio",
              ratio(static_cast<double>(reference.results_applied),
                    static_cast<double>(reference.admission_offered)),
              "ratio");
  if (w->learnable_labels) {
    std::cout << "forward_macro_f1: " << reference.packet_confusion.macro_f1() << "\n";
  }
}

// ------------------------------------------------------------------ traced

void run_traced(const Args& args, Checks& checks, MetricSet& metrics) {
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  const double packets = static_cast<double>(w.trace.packets.size());
  std::cout << "workload " << w.name << ": " << w.trace.packets.size() << " packets\n";

  std::uint64_t inferences = 0;
  const core::RunReport reference = reference_replay(w, checks, &inferences);
  const double mirrors = static_cast<double>(reference.mirrors);

  // Warm serial replays: the wall time the layers are attributed against.
  std::vector<double> serial_s;
  for (std::size_t i = 0; i < kMinReplays; ++i) {
    const Replay serial = replay(w, Mode::kSerial);
    checks.record("serial", check_identical(reference, *serial.report));
    serial_s.push_back(serial.wall_s);
  }
  const double serial_ns_per_pkt = median(serial_s) * 1e9 / packets;

  const LayerTimings t = time_layers(w, kThreads);
  std::vector<std::string> layer_problems;
  if (!t.batch_matches_predict) {
    layer_problems.push_back("predict_batch / InferenceBatcher disagree with predict");
  }
  // Without feedback from the layers behind it (no shed, no degraded-mode
  // suppression: both leave the flow's backlog un-reset, which changes later
  // draws), the standalone Data Engine must grant exactly what the replay did.
  const bool feedback_free = reference.admission_offered == reference.admission_admitted;
  if (feedback_free && t.data_engine_grants != reference.admission_offered) {
    layer_problems.push_back("standalone Data Engine granted " +
                             std::to_string(t.data_engine_grants) + " mirrors, the replay " +
                             std::to_string(reference.admission_offered));
  }
  checks.record("layers", layer_problems);

  // pipes4, untraced vs observed by a barrier clock, alternating.
  { checks.record("pipes4 warm-up", check_identical(reference, *replay(w, Mode::kPipes4).report)); }
  std::vector<double> plain_s, traced_s, epoch_us;
  core::PipelineTelemetry telemetry;
  for (std::size_t i = 0; i < kTracedPairs; ++i) {
    const Replay plain = replay(w, Mode::kPipes4);
    checks.record("pipes4", check_identical(reference, *plain.report));
    plain_s.push_back(plain.wall_s);
    BarrierClock clock;
    const Replay traced = replay(w, Mode::kPipes4, &clock, &telemetry);
    checks.record("pipes4 traced", check_identical(reference, *traced.report));
    traced_s.push_back(traced.wall_s);
    const auto walls = clock.epoch_wall_us();
    epoch_us.insert(epoch_us.end(), walls.begin(), walls.end());
  }

  // The lifecycle eager-on-worker path: an INT4 shadow of the same CNN,
  // promoted at mid-trace, on the pipes4 replay.
  const auto shadow = make_int4_shadow(w);
  core::FenixSystemConfig lc = w.config;
  lc.lifecycle.shadow_cnn = shadow.get();
  lc.lifecycle.promote_at = w.trace.duration() / 2;
  lc.lifecycle.swap_blackout = sim::milliseconds(2);
  core::RunReport lifecycle_report(w.num_classes);
  {
    core::FenixSystem sys(lc, w.cnn.get(), nullptr);
    core::PipelineOptions opts;
    opts.pipes = 4;
    opts.threads = kThreads;
    lifecycle_report = sys.run_pipelined(w.trace, w.num_classes, nullptr, {}, opts);
    checks.record("lifecycle pipes4", check_serial(w, lc, sys, lifecycle_report));
  }

  // Serial time attributed to the timed layers; what is left is ReplayCore.
  const double sent = static_cast<double>(reference.mirrors + reference.retransmits);
  const double windows_per_s = 1.0 / sim::to_seconds(w.config.data_engine.window_tw);
  const double rebuilds = sim::to_seconds(w.trace.duration()) * windows_per_s;
  const LayerCost nn_cost{t.predict_ns, static_cast<double>(inferences) / packets};
  const std::vector<LayerCost> layers = {
      {t.data_engine_ns_per_pkt, 1.0},
      nn_cost,
      {t.submit_ns, static_cast<double>(inferences + reference.fifo_drops) / packets},
      {t.link_send_ns, (sent + static_cast<double>(inferences)) / packets},
      {t.on_grant_ns, static_cast<double>(reference.admission_offered) / packets},
      {t.rebuild_ns, rebuilds / packets},
  };
  const double residual = residual_ns_per_pkt(serial_ns_per_pkt, layers);
  const double nn_share = nn_cost.ns_per_call * nn_cost.calls_per_pkt / serial_ns_per_pkt;
  const double de_share = t.data_engine_ns_per_pkt / serial_ns_per_pkt;
  const double residual_share = residual / serial_ns_per_pkt;

  const double sheds = static_cast<double>(reference.shed_thinned + reference.shed_frozen +
                                           reference.shed_isolated);
  const auto walls = epoch_us.empty() ? std::vector<double>{0.0} : epoch_us;

  metrics.add("trafficgen.ns_per_pkt", w.generate_s * 1e9 / packets, "ns");
  metrics.add("data_engine.ns_per_pkt", t.data_engine_ns_per_pkt, "ns");
  metrics.add("data_engine.mirrors_per_pkt", static_cast<double>(t.data_engine_grants) / packets,
              "ratio");
  metrics.add("flow_tracker.collisions_per_pkt", static_cast<double>(t.flow_collisions) / packets,
              "ratio");
  metrics.add("nn.predict_ns", t.predict_ns, "ns");
  metrics.add("nn.predict_batch_ns", t.predict_batch_ns, "ns");
  metrics.add("nn.shadow_predict_ns", t.shadow_predict_ns, "ns");
  metrics.add("model_engine.submit_ns", t.submit_ns, "ns");
  metrics.add("batcher.handoff_ns", t.handoff_ns, "ns");
  metrics.add("batcher.batches", static_cast<double>(t.batches), "count");
  metrics.add("fanin.cas_retries_per_mirror",
              ratio(static_cast<double>(telemetry.fanin.cas_retries), mirrors), "ratio");
  metrics.add("fanin.full_stalls", static_cast<double>(telemetry.fanin.full_stalls), "count");
  metrics.add("link.send_ns", t.link_send_ns, "ns");
  metrics.add("admission.on_grant_ns", t.on_grant_ns, "ns");
  metrics.add("admission.shed_ratio",
              ratio(sheds, static_cast<double>(reference.admission_offered)), "ratio");
  metrics.add("admission.peak_tier", static_cast<double>(reference.admission_peak_tier), "tier");
  metrics.add("admission.transitions", static_cast<double>(reference.admission_transitions),
              "count");
  metrics.add("replay_core.residual_ns_per_pkt", residual, "ns");
  metrics.add("replay_core.deadline_misses_per_mirror",
              ratio(static_cast<double>(reference.deadline_misses), mirrors), "ratio");
  metrics.add("replay_core.fifo_drops_per_mirror",
              ratio(static_cast<double>(reference.fifo_drops), mirrors), "ratio");
  metrics.add("replay_core.retransmits_per_mirror",
              ratio(static_cast<double>(reference.retransmits), mirrors), "ratio");
  metrics.add("barrier.epochs", static_cast<double>(telemetry.epochs), "count");
  metrics.add("epoch.wall_p50_us", percentile(walls, 50.0), "us");
  metrics.add("epoch.wall_p99_us", percentile(walls, 99.0), "us");
  metrics.add("prob_table.rebuild_ns", t.rebuild_ns, "ns");
  metrics.add("lifecycle.shadow_evals_per_mirror",
              ratio(static_cast<double>(lifecycle_report.lifecycle_shadow_evals),
                    static_cast<double>(lifecycle_report.mirrors)),
              "ratio");
  metrics.add("lifecycle.swap_drops", static_cast<double>(lifecycle_report.lifecycle_swap_drops),
              "count");
  metrics.add("trace.overhead_ratio", median(traced_s) / median(plain_s), "ratio");
  metrics.add("nn.serial_share", nn_share, "ratio");
  metrics.add("data_engine.serial_share", de_share, "ratio");
  metrics.add("replay_core.residual_share", residual_share, "ratio");

  std::cout << "serial: " << serial_ns_per_pkt << " ns/pkt; shares: nn " << nn_share
            << ", data_engine " << de_share << ", replay_core residual " << residual_share
            << "; largest: "
            << (nn_share >= de_share + residual_share ? "nn" : "data_engine + replay_core")
            << "\nadmission: shed ratio "
            << ratio(sheds, static_cast<double>(reference.admission_offered))
            << ", peak tier " << reference.admission_peak_tier << "\n"
            << "pipes4: " << walls.size() << " epoch intervals timed over " << kTracedPairs
            << " traced replays, tracing overhead " << median(traced_s) / median(plain_s)
            << "; lifecycle promotions " << lifecycle_report.lifecycle_promotions << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Pin the mmap threshold and keep freed heap pages. With glibc's sliding
  // mmap threshold, the replays of one run alternated between freshly
  // faulted and recycled pages, which moved the same replay's throughput by
  // up to 2x.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const std::size_t nproc = online_cpus();
  print_fingerprint(nproc);
  if (2 * kThreads > nproc) {
    std::cerr << "perfbench: error: thread budget 2T = " << 2 * kThreads << " exceeds nproc = "
              << nproc << "; refusing to measure an oversubscribed host\n";
    return 3;
  }
  Checks checks;
  MetricSet metrics;
  try {
    if (args.trace) {
      run_traced(args, checks, metrics);
    } else {
      run_end_to_end(args, checks, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
  const bool correct = checks.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
