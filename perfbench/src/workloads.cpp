#include "workloads.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "alloc_count.hpp"
#include "layers.hpp"
#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "tmio/report.hpp"
#include "tmio/tracer.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/wacomm.hpp"

namespace perfbench {

namespace mpisim = iobts::mpisim;
namespace obs = iobts::obs;
namespace pfs = iobts::pfs;
namespace scenario = iobts::scenario;
namespace sim = iobts::sim;
namespace tmio = iobts::tmio;
namespace wl = iobts::workloads;

std::string Fingerprint::str() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "elapsed_s=%.9f requests=%llu write_bytes=%llu "
                "read_bytes=%llu verifies=%llu limit_changes=%llu",
                elapsed, static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(write_bytes),
                static_cast<unsigned long long>(read_bytes),
                static_cast<unsigned long long>(verifies),
                static_cast<unsigned long long>(limit_changes));
  return buf;
}

namespace {

// --- Sizes ------------------------------------------------------------------

struct HaccShape {
  int ranks;
  int loops;
};

int wacommRanks(Size size) { return size == Size::Full ? 9216 : 96; }
int wacommIterations(Size size) { return size == Size::Full ? 5 : 4; }
/// hacc_direct and hacc_recorded share this shape: they are twins.
HaccShape haccShape(Size size) {
  return size == Size::Full ? HaccShape{1024, 4} : HaccShape{64, 2};
}
HaccShape noisyShape(Size size) {
  return size == Size::Full ? HaccShape{256, 4} : HaccShape{48, 2};
}

// --- Paper configuration (mirrors the figure harnesses) ---------------------

/// Lichtenberg-like PFS: 106 GB/s write, 120 GB/s read, 1.5 GB/s per client.
pfs::LinkConfig lichtenbergLink() {
  pfs::LinkConfig cfg;
  cfg.write_capacity = 106e9;
  cfg.read_capacity = 120e9;
  cfg.client_rate_cap = 1.5e9;
  return cfg;
}

/// HACC-IO with the paper's rank-scaled compute/verify blocks and the nine
/// particle arrays as nine requests per write.
wl::HaccIoConfig paperScaledHacc(int ranks, int loops) {
  wl::HaccIoConfig cfg;
  const double scale = std::pow(static_cast<double>(ranks), 0.55);
  cfg.compute_seconds = 0.30 * scale;
  cfg.verify_seconds = 0.25 * scale;
  cfg.requests_per_write = 9;
  cfg.loops = loops;
  return cfg;
}

tmio::TracerConfig tracerFor(tmio::StrategyKind strategy) {
  tmio::TracerConfig cfg;
  cfg.strategy = strategy;
  cfg.params.tolerance = 1.1;
  return cfg;
}

/// Requests of one HACC-IO rank: per loop a header write, nine array writes
/// and one read-back.
std::uint64_t haccRequests(HaccShape shape) {
  return static_cast<std::uint64_t>(shape.ranks) * shape.loops * 11;
}

// --- Host measurements ------------------------------------------------------

/// Restart the kernel's peak-RSS record at the current RSS, so the next
/// readPeakRssMb() covers one repetition (plus the heap the process keeps
/// mapped between repetitions, see main.cpp).
void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double readPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0.0;
}

// --- Result extraction ------------------------------------------------------

/// The paper's results: Fig. 10/13's exploit split and the application-level
/// T / B / B_L series. Returns a value so the work cannot be dropped.
double extractResults(const tmio::Tracer& tracer, const mpisim::World& world) {
  const tmio::ExploitBreakdown e = tmio::exploitBreakdown(tracer, world);
  const auto t = tracer.appThroughputSeries(pfs::Channel::Write);
  const auto b = tracer.appRequiredSeries(pfs::Channel::Write);
  const auto l = tracer.appLimitSeries(pfs::Channel::Write);
  return e.async_write_exploit + t.maxValue() + b.maxValue() + l.maxValue();
}

/// Layer counters every repetition can read off the finished stack.
void readCounters(const sim::Simulation& simulation, const pfs::SharedLink& link,
                  const mpisim::World& world, const tmio::Tracer& tracer,
                  RepResult& rep) {
  obs::MetricsRegistry registry;
  link.exportMetrics(registry);
  world.exportMetrics(registry);
  rep.fingerprint.write_bytes = registry.counter("pfs.write.bytes_moved");
  rep.fingerprint.read_bytes = registry.counter("pfs.read.bytes_moved");
  rep.fingerprint.limit_changes = tracer.limitChanges().size();
  rep.fingerprint.elapsed = world.elapsed();
  rep.failed_ranks = world.failedRanks();

  const auto w = link.resolveStats(pfs::Channel::Write);
  const auto r = link.resolveStats(pfs::Channel::Read);
  const double executed = static_cast<double>(w.executed + r.executed);
  const double skipped = static_cast<double>(w.lazy_skipped + r.lazy_skipped);
  auto& layers = rep.layers;
  layers["sim.events"] = static_cast<double>(simulation.eventsProcessed());
  layers["throttle.subrequests"] = static_cast<double>(
      registry.counter("mpisim.pacer.write.subrequests") +
      registry.counter("mpisim.pacer.read.subrequests"));
  layers["throttle.sleeps"] =
      static_cast<double>(registry.counter("mpisim.pacer.write.sleeps") +
                          registry.counter("mpisim.pacer.read.sleeps"));
  layers["tmio.phases"] = static_cast<double>(tracer.phaseRecords().size());
  layers["tmio.limit_changes"] =
      static_cast<double>(tracer.limitChanges().size());
  layers["pfs.resolves"] = executed;
  layers["pfs.resolve_skips"] = skipped;
  layers["pfs.skip_ratio"] =
      executed + skipped > 0.0 ? skipped / (executed + skipped) : 0.0;
}

/// Kernel and request-path split from the recorded spans: resume and
/// callback wall, the kernel's own time (run wall outside any dispatch), the
/// PFS resolves, and mpisim's own share of the resumes (without the TMIO
/// hooks and resolves nested in them).
void spanSplit(const SpanAccumulator& spans, double run_s, RepResult& rep) {
  auto seconds = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const double resume_s = seconds(spans.total("dispatch.resume").wall_ns);
  const double callback_s = seconds(spans.total("dispatch.callback").wall_ns);
  const SpanTotal resolve = spans.total("resolve");
  const SpanTotal hook = spans.total("tmio.hook");
  auto& layers = rep.layers;
  const double events = layers["sim.events"];
  const double self_s = std::max(0.0, run_s - resume_s - callback_s);
  layers["sim.resume_s"] = resume_s;
  layers["sim.callback_s"] = callback_s;
  layers["sim.self_s"] = self_s;
  layers["sim.ns_per_event"] = events > 0.0 ? self_s * 1e9 / events : 0.0;
  layers["pfs.resolve_s"] = seconds(resolve.wall_ns);
  layers["mpisim.self_s"] =
      std::max(0.0, resume_s - seconds(hook.in_resume_ns) -
                        seconds(resolve.in_resume_ns));
}

// --- Direct-API workloads ---------------------------------------------------

/// The figure harnesses' wiring: link -> tracer -> world, tracer attached
/// before launch.
struct Stack {
  Stack(pfs::LinkConfig link_cfg, mpisim::WorldConfig world_cfg,
        tmio::TracerConfig tracer_cfg, bool timed)
      : link(simulation, link_cfg),
        tracer(std::move(tracer_cfg), timed),
        world(simulation, link, store, world_cfg, &tracer) {
    tracer.attach(world);
  }

  sim::Simulation simulation;
  pfs::SharedLink link;
  pfs::FileStore store;
  BenchTracer tracer;
  mpisim::World world;
};

struct DirectRun {
  pfs::LinkConfig link;
  mpisim::WorldConfig world;
  tmio::TracerConfig tracer;
  mpisim::World::RankProgram program;
  ReplayLayout replay;
};

/// Set up, run, extract and (when traced) split one direct-API run.
RepResult runDirect(DirectRun spec, bool traced, RepResult rep) {
  resetPeakRss();
  const Clock::time_point setup_start = Clock::now();
  auto stack = std::make_unique<Stack>(spec.link, spec.world, spec.tracer,
                                       traced);
  stack->world.launch(spec.program);
  rep.setup_s = secondsSince(setup_start);

  std::optional<SpanWallSink> spans;
  if (traced) spans.emplace();
  const std::uint64_t allocs_before = allocationCount();
  const Clock::time_point run_start = Clock::now();
  stack->simulation.run();
  const double run_s = secondsSince(run_start);
  rep.allocations = allocationCount() - allocs_before;
  if (spans) spans->finish();

  const Clock::time_point report_start = Clock::now();
  volatile double results = extractResults(stack->tracer, stack->world);
  (void)results;
  const double report_s = secondsSince(report_start);
  rep.wall_s = run_s + report_s;

  readCounters(stack->simulation, stack->link, stack->world, stack->tracer,
               rep);
  const BenchTracer& tracer = stack->tracer;
  rep.fingerprint.requests = tracer.requests();
  rep.error_requests = tracer.errorRequests();
  rep.requested_write = tracer.requestedBytes(true);
  rep.requested_read = tracer.requestedBytes(false);
  rep.layers["mpisim.requests"] = static_cast<double>(tracer.requests());

  if (traced) {
    spanSplit(spans->spans(), run_s, rep);
    auto& layers = rep.layers;
    layers["tmio.hook_calls"] = static_cast<double>(tracer.hookCalls());
    layers["tmio.hook_s"] = tracer.hookSeconds();
    layers["tmio.report_s"] = report_s;
    layers["trace.wall_s"] = rep.wall_s;
    const ReplayResult replay =
        replayFileStore(tracer.stream(), spec.world.ranks, spec.replay);
    layers["filestore.files"] = static_cast<double>(replay.files);
    layers["filestore.ops"] = static_cast<double>(replay.ops);
    layers["filestore.replay_s"] = replay.seconds;
    if (replay.verify_failures != 0 ||
        (spec.replay.verify_reads && replay.verifies != rep.expected_verifies)) {
      rep.check_failures.push_back(
          "filestore replay: " + std::to_string(replay.verify_failures) +
          " of " + std::to_string(replay.verifies) + " verifies failed");
    }
  }
  rep.peak_rss_mb = readPeakRssMb();
  return rep;
}

RepResult runWacommUpOnly(Size size, std::uint64_t seed, bool traced,
                          const std::string& /*tmp_dir*/) {
  DirectRun spec;
  spec.link = lichtenbergLink();
  spec.link.congestion_gamma = 2e-4;  // mild concurrent-writer inefficiency
  spec.link.seed = seed;
  spec.world.ranks = wacommRanks(size);
  spec.world.seed = seed;
  spec.tracer = tracerFor(tmio::StrategyKind::UpOnly);
  wl::WacommConfig cfg;
  cfg.bytes_per_particle = 2048;
  cfg.iteration_compute_core_seconds = 48.0;
  cfg.iteration_fixed_seconds = 2.2;
  cfg.iterations = wacommIterations(size);
  spec.program = wl::wacommProgram(cfg);
  // One shared output file written by every rank; rank 0 reads the restart
  // file once. WaComM++ never verifies.
  spec.replay.path = [prefix = cfg.path_prefix](const ReplayOp& op) {
    return prefix + (op.write ? ".out" : ".restart");
  };

  RepResult rep;
  rep.expected_requests =
      static_cast<std::uint64_t>(spec.world.ranks) * cfg.iterations + 1;
  return runDirect(std::move(spec), traced, std::move(rep));
}

/// HACC-IO through the direct API; the verify count comes from the
/// workload's own stats.
RepResult runHacc(HaccShape shape, pfs::LinkConfig link,
                  mpisim::WorldConfig world, bool traced) {
  DirectRun spec;
  spec.link = link;
  spec.world = world;
  spec.world.ranks = shape.ranks;
  spec.tracer = tracerFor(tmio::StrategyKind::Direct);
  const wl::HaccIoConfig cfg = paperScaledHacc(shape.ranks, shape.loops);
  auto stats = std::make_shared<wl::HaccIoStats>();
  spec.program = wl::haccIoProgram(cfg, stats.get());
  spec.replay.path = [prefix = cfg.path_prefix](const ReplayOp& op) {
    return prefix + "." + std::to_string(op.rank);
  };
  spec.replay.verify_reads = true;

  RepResult rep;
  rep.expected_requests = haccRequests(shape);
  rep.expected_verifies =
      static_cast<std::uint64_t>(shape.ranks) * shape.loops;
  rep = runDirect(std::move(spec), traced, std::move(rep));
  rep.fingerprint.verifies = static_cast<std::uint64_t>(stats->verified_loops);
  rep.verify_failures = static_cast<std::uint64_t>(stats->verify_failures);
  return rep;
}

RepResult runHaccDirect(Size size, std::uint64_t seed, bool traced,
                        const std::string& /*tmp_dir*/) {
  pfs::LinkConfig link = lichtenbergLink();
  link.seed = seed;
  mpisim::WorldConfig world;
  world.seed = seed;
  return runHacc(haccShape(size), link, world, traced);
}

RepResult runHaccNoisy(Size size, std::uint64_t seed, bool traced,
                       const std::string& /*tmp_dir*/) {
  const HaccShape shape = noisyShape(size);
  const wl::HaccIoConfig cfg = paperScaledHacc(shape.ranks, shape.loops);
  pfs::LinkConfig link = lichtenbergLink();
  // Fig. 14's slow I/O: per-transfer lognormal caps around 1.4x the write
  // requirement (payload over the verify window), re-solved every 5 ms.
  link.noise_sigma = 0.5;
  link.noise_reference_rate =
      1.4 * static_cast<double>(wl::haccBytesPerRankPerLoop(cfg)) /
      cfg.verify_seconds;
  link.recompute_quantum = 5e-3;
  link.seed = seed;
  mpisim::WorldConfig world;
  world.compute_jitter_sigma = 0.03;
  world.seed = seed;
  return runHacc(shape, link, world, traced);
}

// --- Scenario + recorder workload -------------------------------------------

/// HACC-IO in the scenario DSL, in the shape of scenarios/fig13_quick.scn:
/// the same program hacc_direct runs through the C++ API.
std::string haccScenarioText(HaccShape shape) {
  return "scenario \"hacc-recorded\"\n"
         "link {\n  write = 106e9\n  read = 120e9\n  client_cap = 1.5e9\n}\n"
         "let payload = 1000000 * 38\n"
         "let reqs = 9\n"
         "let loops = " + std::to_string(shape.loops) + "\n"
         "let per = payload / reqs\n"
         "let compute_s = 0.30 * pow(ranks, 0.55)\n"
         "let verify_block = 0.25 * pow(ranks, 0.55) + payload / 8.0e9\n"
         "world main { ranks = " + std::to_string(shape.ranks) +
         "  strategy = \"direct\"  tolerance = 1.1 }\n"
         "program main {\n"
         "  loop l : loops {\n"
         "    bcast 8\n"
         "    compute compute_s\n"
         "    wait read_req\n"
         "    if l > 0 {\n"
         "      verify file \"/pfs/hacc.{rank}\" at 64 bytes payload tag "
         "splitmix((rank << 20) ^ (l - 1) ^ 0x9acc10)\n"
         "    }\n"
         "    write file \"/pfs/hacc.{rank}\" at 0 bytes 64 tag 0x4ead0001\n"
         "    loop c : reqs {\n"
         "      iwrite file \"/pfs/hacc.{rank}\" at 64 + c * per bytes "
         "(c == reqs - 1 ? payload - per * (reqs - 1) : per) tag "
         "splitmix((rank << 20) ^ l ^ 0x9acc10) -> writes\n"
         "    }\n"
         "    bcast 8\n"
         "    compute verify_block\n"
         "    waitall writes\n"
         "    iread file \"/pfs/hacc.{rank}\" at 64 bytes payload -> read_req\n"
         "  }\n"
         "  compute compute_s\n"
         "  wait read_req\n"
         "  verify file \"/pfs/hacc.{rank}\" at 64 bytes payload tag "
         "splitmix((rank << 20) ^ (loops - 1) ^ 0x9acc10)\n"
         "}\n";
}

RepResult runHaccRecorded(Size size, std::uint64_t seed, bool traced,
                          const std::string& tmp_dir) {
  const HaccShape shape = haccShape(size);
  const std::string text = haccScenarioText(shape);
  const std::string path = tmp_dir + "/hacc_recorded." +
                           std::to_string(::getpid()) + ".binlog";
  RepResult rep;
  rep.expected_requests = haccRequests(shape);
  rep.expected_verifies =
      static_cast<std::uint64_t>(shape.ranks) * shape.loops;
  (void)seed;  // the scenario text pins its own seeds, as hacc_direct does

  resetPeakRss();
  const Clock::time_point setup_start = Clock::now();
  // The recorder's sink: wall capture on only for the traced repetition,
  // whose per-layer spans are then read back from the file.
  obs::TraceSinkConfig sink_cfg;
  sink_cfg.capture_wall_time = traced;
  obs::TraceSink sink(sink_cfg);
  obs::ScopedTraceSink install(sink);
  auto writer = std::make_unique<obs::BinaryTraceWriter>(sink, path);
  if (!writer->good()) {
    rep.check_failures.push_back("cannot open " + path);
    return rep;
  }
  const Clock::time_point compile_start = Clock::now();
  sim::Simulation simulation;
  scenario::Instance instance(simulation, scenario::parseScenario(text));
  instance.launch();
  const double compile_s = secondsSince(compile_start);
  rep.setup_s = secondsSince(setup_start);

  const std::uint64_t allocs_before = allocationCount();
  const Clock::time_point run_start = Clock::now();
  simulation.run();
  const double run_s = secondsSince(run_start);
  rep.allocations = allocationCount() - allocs_before;
  instance.requireFinished();

  const tmio::Tracer& tracer = instance.tracer(0);
  mpisim::World& world = instance.world(0);
  const Clock::time_point report_start = Clock::now();
  volatile double results = extractResults(tracer, world);
  (void)results;
  const double report_s = secondsSince(report_start);
  const Clock::time_point close_start = Clock::now();
  const bool closed = writer->close();
  const double close_s = secondsSince(close_start);
  rep.wall_s = run_s + report_s + close_s;
  if (!closed) rep.check_failures.push_back("binlog close failed");

  readCounters(simulation, instance.link(), world, tracer, rep);
  const scenario::RunStats& stats = instance.stats();
  rep.fingerprint.requests = stats.io_submitted;
  rep.fingerprint.verifies = stats.verified;
  rep.verify_failures = stats.verify_failures;
  rep.error_requests = stats.failed_requests;
  rep.requested_write = stats.write_bytes_requested;
  rep.requested_read = stats.read_bytes_requested;

  const Clock::time_point summary_start = Clock::now();
  obs::SummaryOptions summary_options;
  summary_options.scenario_name = instance.spec().name;
  summary_options.scenario_text = text;
  const obs::RunSummary summary =
      obs::summarizeInstance(instance, summary_options);
  const double summary_s = secondsSince(summary_start);
  if (summary.sections.empty()) rep.check_failures.push_back("empty summary");

  auto& layers = rep.layers;
  const double events = static_cast<double>(writer->events());
  layers["mpisim.requests"] = static_cast<double>(stats.io_submitted);
  layers["obs.events"] = events;
  layers["obs.bytes_per_event"] =
      events > 0.0 ? static_cast<double>(writer->bytesWritten()) / events
                   : 0.0;
  layers["obs.close_s"] = close_s;
  layers["obs.summary_s"] = summary_s;
  layers["scenario.compile_s"] = compile_s;
  layers["scenario.ops"] = static_cast<double>(stats.ops);

  // The traced repetition decodes the whole file (the per-layer spans live
  // there); an untraced one only checks that it is complete, which keeps
  // the decoded events out of its peak RSS.
  std::error_code size_error;
  const auto file_bytes = std::filesystem::file_size(path, size_error);
  if (size_error || file_bytes != writer->bytesWritten()) {
    rep.check_failures.push_back("binlog holds " +
                                 std::to_string(size_error ? 0 : file_bytes) +
                                 " bytes, writer reported " +
                                 std::to_string(writer->bytesWritten()));
  }
  if (traced) {
    const Clock::time_point decode_start = Clock::now();
    try {
      const obs::BinaryTrace decoded = obs::readBinaryTrace(path);
      layers["obs.decode_s"] = secondsSince(decode_start);
      if (decoded.events.size() != writer->events()) {
        rep.check_failures.push_back(
            "binlog decoded " + std::to_string(decoded.events.size()) +
            " events, recorded " + std::to_string(writer->events()));
      }
      SpanAccumulator spans;
      for (const obs::BinEvent& event : decoded.events) {
        if (event.phase != obs::Phase::Complete) continue;
        spans.add(decoded.strings[event.name].c_str(), event.wall_ns);
      }
      spanSplit(spans, run_s, rep);
    } catch (const obs::BinlogError& error) {
      rep.check_failures.push_back(std::string("binlog decode: ") +
                                   error.what());
    }
    layers["tmio.report_s"] = report_s;
    layers["trace.wall_s"] = rep.wall_s;
  }
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  rep.peak_rss_mb = readPeakRssMb();
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload is in the benchmark: BENCHMARK.json and README.md.
  static const std::vector<Workload> all = {
      {"wacomm_uponly", &runWacommUpOnly},
      {"hacc_direct", &runHaccDirect},
      {"hacc_noisy", &runHaccNoisy},
      {"hacc_recorded", &runHaccRecorded},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

void checkInvariants(RepResult& rep) {
  auto fail = [&](const std::string& what) {
    rep.check_failures.push_back(what);
  };
  const Fingerprint& fp = rep.fingerprint;
  if (fp.requests != rep.expected_requests) {
    fail("requests " + std::to_string(fp.requests) + " != expected " +
         std::to_string(rep.expected_requests));
  }
  if (fp.verifies != rep.expected_verifies) {
    fail("verifies " + std::to_string(fp.verifies) + " != expected " +
         std::to_string(rep.expected_verifies));
  }
  if (rep.error_requests != 0) {
    fail(std::to_string(rep.error_requests) + " requests with error status");
  }
  if (rep.verify_failures != 0) {
    fail(std::to_string(rep.verify_failures) + " failed verifies");
  }
  if (rep.failed_ranks != 0) {
    fail(std::to_string(rep.failed_ranks) + " failed ranks");
  }
  if (fp.write_bytes != rep.requested_write ||
      fp.read_bytes != rep.requested_read) {
    fail("bytes not conserved: moved " + std::to_string(fp.write_bytes) +
         "/" + std::to_string(fp.read_bytes) + " requested " +
         std::to_string(rep.requested_write) + "/" +
         std::to_string(rep.requested_read));
  }
  if (!(fp.elapsed > 0.0)) fail("non-positive elapsed time");
}

}  // namespace perfbench
