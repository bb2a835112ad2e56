// Order statistics over a run's repetitions.
#pragma once

#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so the benchmark's spreads read the
/// same as the ones computed over its results. Empty input gives zeros.
Quartiles quartiles(std::vector<double> values);

}  // namespace perfbench
