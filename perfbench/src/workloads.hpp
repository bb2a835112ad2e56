// The benchmark's workloads: paper-shaped runs of the simulated stack, each
// built through the library's public API and run once per repetition.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace perfbench {

enum class Size { Full, Tiny };

/// The simulated outcome of one run. Equal inputs give equal fingerprints,
/// on any host; it is what the correctness gate pins.
struct Fingerprint {
  double elapsed = 0.0;  // virtual seconds
  std::uint64_t requests = 0;
  iobts::Bytes write_bytes = 0;  // moved by the PFS
  iobts::Bytes read_bytes = 0;
  std::uint64_t verifies = 0;
  std::uint64_t limit_changes = 0;

  std::string str() const;
};

/// One repetition: what it simulated, what it checked, and what it cost.
struct RepResult {
  Fingerprint fingerprint;

  // Invariants that hold for every seed.
  std::uint64_t expected_requests = 0;
  std::uint64_t expected_verifies = 0;
  std::uint64_t error_requests = 0;  // completed with an error status
  std::uint64_t verify_failures = 0;
  int failed_ranks = 0;
  iobts::Bytes requested_write = 0;
  iobts::Bytes requested_read = 0;
  std::vector<std::string> check_failures;  // filled by checkInvariants

  // Host cost.
  double setup_s = 0.0;
  double wall_s = 0.0;  // Simulation::run() + result extraction (+ close)
  std::uint64_t allocations = 0;  // during Simulation::run()
  double peak_rss_mb = 0.0;

  // Per-layer numbers (per_layer metric name -> value). Traced repetitions
  // fill every layer they can observe; untraced ones only the counters.
  std::map<std::string, double> layers;
};

struct Workload {
  const char* name;
  /// Runs one repetition; `traced` installs the per-layer instruments.
  RepResult (*run)(Size size, std::uint64_t seed, bool traced,
                   const std::string& tmp_dir);
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// Appends to rep.check_failures every seed-independent invariant the
/// repetition breaks: request and verify counts, error statuses, failed
/// ranks, and bytes conserved between the requests and the PFS.
void checkInvariants(RepResult& rep);

}  // namespace perfbench
