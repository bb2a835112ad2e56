// Micro-benchmarks of the scenario compiler: front-end cost (generate +
// lex/parse/validate), full end-to-end runs of generated documents -- the
// per-scenario overhead a fuzzing campaign or a scenario-driven study pays
// on top of the simulation itself -- and the Fig. 13 quick twin as C++, as
// DSL, and as recorded DSL.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "mpisim/world.hpp"
#include "obs/binlog.hpp"
#include "obs/trace.hpp"
#include "pfs/file_store.hpp"
#include "pfs/shared_link.hpp"
#include "scenario/generator.hpp"
#include "scenario/instance.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulation.hpp"
#include "tmio/tracer.hpp"
#include "workloads/hacc_io.hpp"
#include "workloads/quick.hpp"

namespace iobts::scenario {
namespace {

void BM_GenerateDocument(benchmark::State& state) {
  const GeneratorConfig config;
  std::uint64_t seed = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string doc = generateScenario(config, seed++);
    bytes += doc.size();
    benchmark::DoNotOptimize(doc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_GenerateDocument);

void BM_ScenarioParse(benchmark::State& state) {
  // A representative generated document, parsed repeatedly: pure front-end
  // cost (lexer + parser + semantic validation), no simulation.
  const std::string doc = generateScenario(GeneratorConfig{}, 7);
  for (auto _ : state) {
    ScenarioSpec spec = parseScenario(doc);
    benchmark::DoNotOptimize(spec.worlds.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_ScenarioParse);

void BM_GeneratedScenarioRun(benchmark::State& state) {
  // End-to-end: generate, parse, compile, run to completion. The seed
  // range cycles so the benchmark averages across document classes
  // (phased, streaming, faulted) instead of timing one lucky layout.
  const GeneratorConfig config;
  std::uint64_t seed = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ScenarioSpec spec = parseScenario(generateScenario(config, seed));
    seed = (seed + 1) % 64;
    sim::Simulation sim;
    Instance instance(sim, std::move(spec));
    instance.launch();
    sim.run();
    instance.requireFinished();
    ops += instance.stats().ops;
    benchmark::DoNotOptimize(instance.stats().ops);
  }
  state.counters["ops/run"] = benchmark::Counter(
      static_cast<double>(ops),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GeneratedScenarioRun);

// The Fig. 13 quick twin three ways: the hand-coded C++ program, the same
// program as DSL text (scenarios/fig13_quick.scn, byte-identical results),
// and the DSL run recorded through the binlog v2 writer (bytes counted, not
// kept). The first gap is the interpreter's cost, the second the flight
// recorder's. Parsing stays outside the timed loop.
void runFig13Cpp() {
  sim::Simulation sim;
  pfs::SharedLink link(sim, workloads::lichtenbergLinkConfig());
  pfs::FileStore store;
  tmio::Tracer tracer(
      workloads::quickTracerConfig(tmio::StrategyKind::Direct));
  mpisim::WorldConfig world_cfg;
  world_cfg.ranks = workloads::kFig13QuickRanks;
  mpisim::World world(sim, link, store, world_cfg, &tracer);
  tracer.attach(world);
  world.launch(workloads::haccIoProgram(workloads::fig13QuickHaccConfig()));
  sim.run();
}

void runFig13Dsl(const ScenarioSpec& spec) {
  sim::Simulation sim;
  Instance instance(sim, spec);
  instance.launch();
  sim.run();
  instance.requireFinished();
}

void BM_Fig13QuickCpp(benchmark::State& state) {
  for (auto _ : state) runFig13Cpp();
}
BENCHMARK(BM_Fig13QuickCpp)->Unit(benchmark::kMillisecond);

void BM_Fig13QuickDsl(benchmark::State& state) {
  const ScenarioSpec spec =
      loadScenarioFile(IOBTS_SCENARIO_DIR "/fig13_quick.scn");
  for (auto _ : state) runFig13Dsl(spec);
}
BENCHMARK(BM_Fig13QuickDsl)->Unit(benchmark::kMillisecond);

void BM_Fig13QuickDslRecorded(benchmark::State& state) {
  const ScenarioSpec spec =
      loadScenarioFile(IOBTS_SCENARIO_DIR "/fig13_quick.scn");
  std::uint64_t events = 0;
  obs::TraceSink sink;  // ring allocated once, outside the timed region
  obs::ScopedTraceSink install(sink);
  for (auto _ : state) {
    obs::BinaryTraceWriter writer(sink, static_cast<std::string*>(nullptr));
    runFig13Dsl(spec);
    writer.close();
    events += writer.events();
  }
  state.counters["events/run"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Fig13QuickDslRecorded)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iobts::scenario

BENCHMARK_MAIN();
