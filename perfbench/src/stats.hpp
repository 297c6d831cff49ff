// Small numeric and naming helpers of the replay benchmark, kept header-only
// so the unit tests exercise exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws on an empty input: a metric with no samples is a benchmark bug.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Percentile `p` in [0, 100] by linear interpolation between closest ranks.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method), so the
/// steadiness figures this benchmark prints match the ones the acceptance
/// check computes. Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Interquartile distance as a share of the median: the run-to-run spread a
/// metric's regression bound is compared against.
inline double relative_spread(const std::vector<double>& values) {
  const auto q = quartiles(values);
  const double mid = median(values);
  return mid != 0.0 ? (q[2] - q[0]) / std::fabs(mid) : 0.0;
}

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1-16 of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// One attributed layer of the serial replay: its cost per call and how many
/// calls one packet makes on average.
struct LayerCost {
  double ns_per_call = 0.0;
  double calls_per_pkt = 0.0;
};

/// Serial wall time per packet that no timed layer accounts for:
/// serial_ns_per_pkt - sum(ns_per_call * calls_per_pkt). What remains is the
/// ReplayCore's own bookkeeping (event pump, deadlines, accounting, merge).
inline double residual_ns_per_pkt(double serial_ns_per_pkt,
                                  const std::vector<LayerCost>& layers) {
  double attributed = 0.0;
  for (const LayerCost& l : layers) attributed += l.ns_per_call * l.calls_per_pkt;
  return serial_ns_per_pkt - attributed;
}

/// The metrics of one run, rendered as the result's "metrics" object.
/// Names and units are validated on insertion; a duplicate, malformed or
/// non-finite entry throws instead of producing a result the caller would
/// have to second-guess.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
    if (!valid_unit(unit)) throw std::invalid_argument("bad unit for " + name + ": " + unit);
    if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric: " + name);
    for (const Entry& e : entries_) {
      if (e.name == name) throw std::invalid_argument("duplicate metric: " + name);
    }
    entries_.push_back({name, value, unit});
  }

  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
