#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, CarriesItsSampleCount) {
  const Percentile p = percentile({5, 1, 3}, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 3);
  EXPECT_EQ(p.samples, 3u);
}

TEST(Percentile, EmptyIsZeroWithNoSamples) {
  const Percentile p = percentile({}, 0.9);
  EXPECT_DOUBLE_EQ(p.value, 0);
  EXPECT_EQ(p.samples, 0u);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Ranks 0..3; q=0.5 sits halfway between 2 and 3.
  EXPECT_DOUBLE_EQ(percentile({4, 1, 2, 3}, 0.5).value, 2.5);
  // q=0.9 over 1..11: rank 9 -> 10.
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9).value, 10);
  EXPECT_DOUBLE_EQ(percentile(v, 0).value, 1);
  EXPECT_DOUBLE_EQ(percentile(v, 1).value, 11);
}

TEST(Percentile, SingleSample) {
  const Percentile p = median({7});
  EXPECT_DOUBLE_EQ(p.value, 7);
  EXPECT_EQ(p.samples, 1u);
}

TEST(Percentile, SamplesBeyondTheTail) {
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(i);
  // p90 = 179.1; 20 values (180..199) lie beyond it.
  EXPECT_EQ(samples_beyond(v, 0.9), 20u);
}

}  // namespace
}  // namespace perfbench
