#include "stats.hpp"

#include <algorithm>

namespace perfbench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 sits at
  // position i * m / 4 (1-based), clamped to [1, n - 1], then interpolated.
  const long m = static_cast<long>(n) + 1;
  auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            values[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

}  // namespace perfbench
