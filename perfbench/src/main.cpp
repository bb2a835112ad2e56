// perfbench: end-to-end and per-layer benchmark of the iobts simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--tmp-dir DIR] [--expect FINGERPRINT]
//
// Runs the workload as a closed loop -- one repetition at a time, each a
// fresh stack: set up, Simulation::run(), extract the paper's results --
// until S seconds have passed. With --trace 0 every repetition is untraced
// and the end-to-end metrics are reported; with --trace 1 untraced and
// traced repetitions alternate and the per-layer metrics are reported, with
// the traced-over-untraced wall ratio as the tracing overhead. Every
// repetition is checked (see workloads.hpp); the last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string tmp_dir = ".";
  std::string expect;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--tmp-dir DIR] "
               "[--expect FINGERPRINT]\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("bad --size");
        args.size = value == "full" ? Size::Full : Size::Tiny;
      } else if (flag == "--tmp-dir") {
        args.tmp_dir = value;
      } else if (flag == "--expect") {
        args.expect = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (findWorkload(args.workload) == nullptr) usage("unknown --workload");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void printHost() {
  std::printf(
      "host {\"cpu\": \"%s\", \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"build_type\": \"%s\"}\n",
      jsonEscape(cpuModel()).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      jsonEscape(PERFBENCH_COMPILER).c_str(),
      jsonEscape(PERFBENCH_FLAGS).c_str(),
      jsonEscape(PERFBENCH_BUILD_TYPE).c_str());
}

struct Metric {
  const char* name;
  const char* unit;
  Quartiles q;
};

void printMetric(const Metric& m) {
  std::printf("metric %-22s %-6s median=%.9g q1=%.9g q3=%.9g n=%zu\n", m.name,
              m.unit, m.q.median, m.q.q1, m.q.q3, m.q.n);
}

template <typename Fn>
Quartiles over(const std::vector<RepResult>& reps, Fn&& value) {
  std::vector<double> values;
  for (const RepResult& rep : reps) values.push_back(value(rep));
  return quartiles(std::move(values));
}

/// Per-layer metrics, in report order; each is read from the traced
/// repetitions' layer maps (0 where the workload does not exercise it).
const std::vector<std::pair<const char*, const char*>>& layerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> all = {
      {"sim.events", "count"},        {"sim.resume_s", "s"},
      {"sim.callback_s", "s"},        {"sim.self_s", "s"},
      {"sim.ns_per_event", "ns"},     {"mpisim.requests", "count"},
      {"mpisim.self_s", "s"},         {"throttle.subrequests", "count"},
      {"throttle.sleeps", "count"},   {"tmio.hook_calls", "count"},
      {"tmio.hook_s", "s"},           {"tmio.phases", "count"},
      {"tmio.limit_changes", "count"}, {"tmio.report_s", "s"},
      {"pfs.resolves", "count"},      {"pfs.resolve_skips", "count"},
      {"pfs.skip_ratio", "ratio"},    {"pfs.resolve_s", "s"},
      {"filestore.files", "count"},   {"filestore.ops", "count"},
      {"filestore.replay_s", "s"},    {"obs.events", "count"},
      {"obs.bytes_per_event", "B"},   {"obs.close_s", "s"},
      {"obs.decode_s", "s"},          {"obs.summary_s", "s"},
      {"scenario.compile_s", "s"},    {"scenario.ops", "count"},
      {"trace.wall_s", "s"},
  };
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  // Keep freed heap mapped between repetitions, so every repetition runs on
  // a warm heap instead of paying fresh page faults.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 25);
  const Workload& workload = *findWorkload(args.workload);
  printHost();

  // Repetition kinds: U untraced, T traced, D the hacc_direct twin
  // (untraced; hacc_recorded only, for obs.overhead_s).
  const bool recorded = args.workload == "hacc_recorded";
  std::string cycle = "U";
  if (args.trace) cycle = recorded ? "UDT" : "UT";
  const std::size_t min_per_kind = args.trace ? 2 : 5;

  std::vector<RepResult> untraced, traced, twin;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t cycles_done = i / cycle.size();
    if (i % cycle.size() == 0 && cycles_done >= min_per_kind &&
        secondsSince(start) >= args.seconds) {
      break;
    }
    const char kind = cycle[i % cycle.size()];
    const Workload& runner = kind == 'D' ? *findWorkload("hacc_direct")
                                         : workload;
    RepResult rep;
    try {
      rep = runner.run(args.size, args.seed, kind == 'T', args.tmp_dir);
    } catch (const std::exception& error) {
      std::printf("FAIL rep %zu (%c): crashed: %s\n", i, kind, error.what());
      ++attempted;
      ++failed;
      continue;
    }
    checkInvariants(rep);
    const std::string fp = rep.fingerprint.str();
    if (fingerprint.empty()) fingerprint = fp;
    if (fp != fingerprint) {
      rep.check_failures.push_back("fingerprint differs between repetitions: " +
                                   fp);
    }
    if (!args.expect.empty() && fp != args.expect) {
      rep.check_failures.push_back("fingerprint differs from the pin: " + fp);
    }
    attempted += rep.fingerprint.requests + rep.fingerprint.verifies + 1;
    failed += rep.error_requests + rep.verify_failures +
              (rep.check_failures.empty() ? 0 : 1);
    std::printf("rep %zu %c wall_s=%.6f setup_s=%.6f allocs=%llu rss_mb=%.1f\n",
                i, kind, rep.wall_s, rep.setup_s,
                static_cast<unsigned long long>(rep.allocations),
                rep.peak_rss_mb);
    for (const std::string& what : rep.check_failures) {
      std::printf("FAIL rep %zu (%c): %s\n", i, kind, what.c_str());
    }
    (kind == 'U' ? untraced : kind == 'T' ? traced : twin)
        .push_back(std::move(rep));
  }
  std::printf("fingerprint %s seed=%llu %s\n", workload.name,
              static_cast<unsigned long long>(args.seed), fingerprint.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", "s", over(untraced, [](const RepResult& r) {
           return r.wall_s;
         })},
        {"setup_s", "s", over(untraced, [](const RepResult& r) {
           return r.setup_s;
         })},
        {"req_per_s", "1/s", over(untraced, [](const RepResult& r) {
           return r.fingerprint.requests / r.wall_s;
         })},
        {"allocs_per_req", "count", over(untraced, [](const RepResult& r) {
           return static_cast<double>(r.allocations) /
                  static_cast<double>(r.fingerprint.requests);
         })},
        {"peak_rss_mb", "MB", over(untraced, [](const RepResult& r) {
           return r.peak_rss_mb;
         })},
    };
  } else {
    for (const auto& [name, unit] : layerMetrics()) {
      const std::string key = name;
      metrics.push_back({name, unit, over(traced, [&](const RepResult& r) {
                           const auto it = r.layers.find(key);
                           return it == r.layers.end() ? 0.0 : it->second;
                         })});
    }
    const auto wall = [](const RepResult& r) { return r.wall_s; };
    const double untraced_wall = over(untraced, wall).median;
    Quartiles overhead;
    overhead.n = traced.size();
    if (untraced_wall > 0.0) {  // 0 only when every repetition crashed
      overhead.median = overhead.q1 = overhead.q3 =
          over(traced, wall).median / untraced_wall - 1.0;
    }
    metrics.push_back({"trace.overhead_frac", "ratio", overhead});
    Quartiles obs_overhead;
    obs_overhead.n = twin.size();
    if (recorded) {
      obs_overhead.median = obs_overhead.q1 = obs_overhead.q3 =
          untraced_wall - over(twin, wall).median;
    }
    metrics.push_back({"obs.overhead_s", "s", obs_overhead});
  }
  for (const Metric& m : metrics) printMetric(m);
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  std::printf("metric %-22s %-6s value=%.9g (failed %llu of %llu)\n",
              "error_rate", "ratio", error_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].q.median,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
