// Perf-trajectory JSON emitter.
//
// Each bench records its headline numbers (kernel ns/op, replay packets/sec,
// sweep wall-clock serial vs parallel) under its own top-level section of
// one JSON file, so successive PRs accumulate a machine-readable performance
// history next to the human-readable tables. Benches re-run at any time and
// only overwrite their own section (plus the shared "host" fingerprint);
// everything else in the file is preserved.
//
// File: $FENIX_BENCH_JSON if set, else BENCH_PR1.json in the working
// directory. The format is a flat two-level object:
//   { "section": { "metric": 123.4, "note": "text" }, ... }
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fenix::bench {

/// An ordered list of metrics for one bench's section.
class JsonSection {
 public:
  void put(const std::string& key, double value);
  void put(const std::string& key, std::int64_t value);
  void put(const std::string& key, const std::string& text);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  /// Values stored pre-rendered as JSON literals.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Path the emitter writes to: $FENIX_BENCH_JSON if set, else
/// `default_file`. Benches introduced by later PRs pass their own default
/// (e.g. "BENCH_PR2.json") so each PR's headline numbers land in their own
/// trajectory file.
std::string bench_json_path(const std::string& default_file = "BENCH_PR1.json");

/// Merges `section` under `name` into the perf-tracking file, preserving all
/// other sections, and rewrites the "host" section: the kernel rung the nn
/// kernels dispatched to (nn::kernels::isa_name()), hardware threads, build
/// type and compiler. Returns false (after printing a warning) if the file
/// cannot be written; benches should not fail on a read-only directory.
bool write_bench_json(const std::string& name, const JsonSection& section,
                      const std::string& default_file = "BENCH_PR1.json");

/// One (section, metric) cell of a perf-tracking file, with the raw JSON
/// literal it holds.
struct BenchMetric {
  std::string section;
  std::string key;
  std::string value;
};

/// Reads every metric of a perf-tracking file written by write_bench_json
/// (the gate bench compares a fresh file against checked-in baselines).
/// Returns an empty list when the file is missing or malformed.
std::vector<BenchMetric> read_bench_json(const std::string& path);

}  // namespace fenix::bench
