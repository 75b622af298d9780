// Order statistics for the benchmark's metrics.  Every percentile travels
// with the number of samples it was taken from, so a reader can tell a p90
// over 2000 scripts from a p90 over 3 passes.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0;         // 0 when there are no samples
  std::size_t samples = 0;  // how many values it was taken from
};

// The q-quantile (0 <= q <= 1) of `values`, linearly interpolated between
// the closest ranks (the "linear" method of numpy and of Python's
// statistics.quantiles with method="inclusive").
Percentile percentile(std::vector<double> values, double q);

inline Percentile median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// Number of samples strictly above the q-quantile.  The guide for these
// metrics reports a tail percentile only when at least ten samples lie
// beyond it.
std::size_t samples_beyond(const std::vector<double>& values, double q);

}  // namespace perfbench
