#include "layers.hpp"

#include <cstring>

#include "pfs/file_store.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace obs = iobts::obs;

namespace {

obs::TraceSinkConfig wallCaptureConfig() {
  obs::TraceSinkConfig config;
  config.capture_wall_time = true;
  return config;
}

}  // namespace

void SpanAccumulator::add(const char* name, std::uint64_t wall_ns) {
  std::size_t index = 0;
  while (index < slots_.size() && slots_[index].name != name) ++index;
  if (index == slots_.size()) {
    Slot& slot = slots_.emplace_back();
    slot.name = name;
    if (std::strcmp(name, "dispatch.resume") == 0) slot.kind = Kind::Resume;
    if (std::strcmp(name, "dispatch.callback") == 0) {
      slot.kind = Kind::Callback;
    }
  }
  Slot& slot = slots_[index];
  slot.total.wall_ns += wall_ns;
  if (slot.kind == Kind::Other) {
    if (!slot.pending) pending_.push_back(index);
    slot.pending = true;
    slot.pending_ns += wall_ns;
    return;
  }
  // A dispatch span closes after everything it enclosed was recorded.
  for (const std::size_t inner : pending_) {
    Slot& nested = slots_[inner];
    (slot.kind == Kind::Resume ? nested.total.in_resume_ns
                               : nested.total.in_callback_ns) +=
        nested.pending_ns;
    nested.pending_ns = 0;
    nested.pending = false;
  }
  pending_.clear();
}

SpanTotal SpanAccumulator::total(const char* name) const {
  SpanTotal out;
  for (const Slot& slot : slots_) {
    if (std::strcmp(slot.name, name) != 0) continue;
    out.wall_ns += slot.total.wall_ns;
    out.in_resume_ns += slot.total.in_resume_ns;
    out.in_callback_ns += slot.total.in_callback_ns;
  }
  return out;
}

SpanWallSink::SpanWallSink() : sink_(wallCaptureConfig()) {
  sink_.setDrainHook(&SpanWallSink::drainHook, this, 0.5, 0.0);
  previous_ = obs::traceSink();
  obs::installTraceSink(&sink_);
  installed_ = true;
}

SpanWallSink::~SpanWallSink() { finish(); }

void SpanWallSink::finish() {
  if (!installed_) return;
  obs::installTraceSink(previous_);
  installed_ = false;
  sink_.drainSegments(&SpanWallSink::addSegment, this);
  sink_.clearDrainHook();
}

void SpanWallSink::drainHook(void* self) {
  auto* me = static_cast<SpanWallSink*>(self);
  me->sink_.drainSegments(&SpanWallSink::addSegment, me);
}

void SpanWallSink::addSegment(void* self, const obs::TraceEvent* events,
                              std::size_t count) {
  auto* me = static_cast<SpanWallSink*>(self);
  for (std::size_t i = 0; i < count; ++i) {
    if (events[i].phase != obs::Phase::Complete) continue;
    me->spans_.add(events[i].name, events[i].wall_ns);
  }
}

BenchTracer::BenchTracer(iobts::tmio::TracerConfig config, bool timed)
    : Tracer(std::move(config)), timed_(timed) {}

template <typename Fn>
void BenchTracer::timedHook(Fn&& fn) {
  if (!timed_) {
    fn();
    return;
  }
  const Clock::time_point start = Clock::now();
  fn();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  hook_ns_ += ns;
  ++hook_calls_;
  if (obs::TraceSink* const sink = obs::traceSink()) {
    sink->complete("bench", "tmio.hook", obs::track::kTmio, 0, 0.0, 0.0, 0.0,
                   ns);
  }
}

void BenchTracer::onSubmit(const iobts::mpisim::RequestInfo& info) {
  timedHook([&] { Tracer::onSubmit(info); });
}

void BenchTracer::onComplete(const iobts::mpisim::RequestInfo& info) {
  ++requests_;
  if (!info.ok()) ++errors_;
  const bool write = iobts::mpisim::isWrite(info.op);
  (write ? write_bytes_ : read_bytes_) += info.bytes;
  if (timed_) stream_.push_back({info.rank, write, info.offset, info.bytes});
  timedHook([&] { Tracer::onComplete(info); });
}

void BenchTracer::onWaitEnter(const iobts::mpisim::RequestInfo& info) {
  timedHook([&] { Tracer::onWaitEnter(info); });
}

void BenchTracer::onWaitExit(const iobts::mpisim::RequestInfo& info,
                             iobts::Seconds blocked) {
  timedHook([&] { Tracer::onWaitExit(info, blocked); });
}

void BenchTracer::onSyncStart(const iobts::mpisim::RequestInfo& info) {
  timedHook([&] { Tracer::onSyncStart(info); });
}

void BenchTracer::onSyncEnd(const iobts::mpisim::RequestInfo& info) {
  timedHook([&] { Tracer::onSyncEnd(info); });
}

iobts::Seconds BenchTracer::onFinalize(int rank) {
  iobts::Seconds post = 0.0;
  timedHook([&] { post = Tracer::onFinalize(rank); });
  return post;
}

ReplayResult replayFileStore(const std::vector<ReplayOp>& stream, int ranks,
                             const ReplayLayout& layout) {
  ReplayResult result;
  const Clock::time_point start = Clock::now();
  iobts::pfs::FileStore store;
  std::vector<std::uint64_t> reads_done(static_cast<std::size_t>(ranks), 0);
  auto tagOf = [](int rank, std::uint64_t loop) {
    std::uint64_t state = (static_cast<std::uint64_t>(rank) << 32) ^ loop;
    return iobts::splitmix64(state);
  };
  for (const ReplayOp& op : stream) {
    const std::string path = layout.path(op);
    std::uint64_t& loop = reads_done[static_cast<std::size_t>(op.rank)];
    if (op.write) {
      store.write(path, op.offset, op.bytes, tagOf(op.rank, loop));
      ++result.ops;
      continue;
    }
    const auto extents = store.read(path, op.offset, op.bytes);
    ++result.ops;
    if (layout.verify_reads) {
      ++result.verifies;
      ++result.ops;
      if (!store.verify(path, op.offset, op.bytes, tagOf(op.rank, loop))) {
        ++result.verify_failures;
      }
    }
    (void)extents;
    ++loop;
  }
  result.files = store.fileCount();
  result.seconds = secondsSince(start);
  return result;
}

}  // namespace perfbench
