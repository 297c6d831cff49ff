#include "stats.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Reference values printed by Python 3.11's statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(b[0], 1.5);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
  EXPECT_DOUBLE_EQ(b[2], 4.5);
  const auto c = quartiles({10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5});
  EXPECT_DOUBLE_EQ(c[0], 10.0);
  EXPECT_DOUBLE_EQ(c[1], 11.0);
  EXPECT_DOUBLE_EQ(c[2], 13.0);
  // Two samples: Python clamps the rank and extrapolates.
  const auto d = quartiles({3.5, 1.0});
  EXPECT_DOUBLE_EQ(d[0], 0.375);
  EXPECT_DOUBLE_EQ(d[1], 2.25);
  EXPECT_DOUBLE_EQ(d[2], 4.125);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Spread, IsInterquartileDistanceOverMedian) {
  EXPECT_DOUBLE_EQ(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(relative_spread({4.0, 4.0, 4.0}), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({10, 0}, 25.0), 2.5);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Names, FollowTheMetricNamePattern) {
  EXPECT_TRUE(valid_metric_name("serial_pps"));
  EXPECT_TRUE(valid_metric_name("replay_core.residual_ns_per_pkt"));
  EXPECT_TRUE(valid_metric_name("9-lives.x_Y"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name("quote\""));
}

TEST(Units, FollowTheUnitPattern) {
  EXPECT_TRUE(valid_unit("packets/s"));
  EXPECT_TRUE(valid_unit("sim_us"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("seventeen-chars-x"));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(Residual, SubtractsEveryAttributedLayer) {
  // 10 us/pkt serial; DE 2 us every packet, nn 15 us on 40% of packets,
  // link 0.1 us twice per mirror.
  const double r = residual_ns_per_pkt(10000.0, {{2000.0, 1.0}, {15000.0, 0.4}, {100.0, 0.8}});
  EXPECT_DOUBLE_EQ(r, 10000.0 - 2000.0 - 6000.0 - 80.0);
  EXPECT_DOUBLE_EQ(residual_ns_per_pkt(500.0, {}), 500.0);
  // Over-attribution shows as a negative residual rather than being hidden.
  EXPECT_LT(residual_ns_per_pkt(100.0, {{200.0, 1.0}}), 0.0);
}

TEST(MetricSet, RendersEveryDigitAndRejectsBadEntries) {
  MetricSet m;
  m.add("serial_pps", 84603.620666442381, "packets/s");
  m.add("setup_s", 2.5, "s");
  EXPECT_EQ(m.json(),
            "{\"serial_pps\": {\"value\": 84603.620666442381, \"unit\": \"packets/s\"}, "
            "\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}");
  EXPECT_THROW(m.add("setup_s", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("ok", 1.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", std::numeric_limits<double>::quiet_NaN(), "s"),
               std::invalid_argument);
  EXPECT_EQ(m.json(),
            "{\"serial_pps\": {\"value\": 84603.620666442381, \"unit\": \"packets/s\"}, "
            "\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}");
  EXPECT_EQ(MetricSet().json(), "{}");
}

}  // namespace
}  // namespace perfbench
