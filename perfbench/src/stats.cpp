#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  p.value = values[lo] + (values[hi] - values[lo]) * frac;
  return p;
}

std::size_t samples_beyond(const std::vector<double>& values, double q) {
  const double cut = percentile(values, q).value;
  return std::size_t(std::count_if(values.begin(), values.end(),
                                   [cut](double v) { return v > cut; }));
}

}  // namespace perfbench
