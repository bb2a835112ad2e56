// Per-layer instruments of the benchmark. Everything here sits outside the
// library and observes it through its public seams:
//
//   * SpanWallSink  -- a wall-capturing obs::TraceSink whose drain hook sums
//                      the real duration (wall_ns) of every span the library
//                      already emits, per span name and enclosing dispatch;
//   * BenchTracer   -- a tmio::Tracer subclass that counts requests (always)
//                      and, when timed, times every TMIO hook and keeps the
//                      request stream for the FileStore replay;
//   * replayFileStore -- replays that stream into a fresh pfs::FileStore.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "tmio/tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of one span name, split by the kernel dispatch that enclosed
/// it (a span recorded before a dispatch span closes ran inside it).
struct SpanTotal {
  std::uint64_t wall_ns = 0;
  std::uint64_t in_resume_ns = 0;
  std::uint64_t in_callback_ns = 0;
};

/// Sums span wall time per name from events fed in recording order.
class SpanAccumulator {
 public:
  /// `name` must stay valid (string literals, or a decoded string table).
  void add(const char* name, std::uint64_t wall_ns);
  /// Totals for `name`, merged by content (0 when the span never occurred).
  SpanTotal total(const char* name) const;

 private:
  enum class Kind { Other, Resume, Callback };
  struct Slot {
    const char* name = nullptr;
    Kind kind = Kind::Other;
    SpanTotal total;
    std::uint64_t pending_ns = 0;  // since the last dispatch span
    bool pending = false;          // listed in pending_
  };
  std::vector<Slot> slots_;
  std::vector<std::size_t> pending_;
};

/// A wall-capturing sink, installed while it lives, whose drain hook feeds
/// every Complete span to a SpanAccumulator. Events leave the ring through
/// the hook, so the ring never wraps and nothing is dropped.
class SpanWallSink {
 public:
  SpanWallSink();
  ~SpanWallSink();
  SpanWallSink(const SpanWallSink&) = delete;
  SpanWallSink& operator=(const SpanWallSink&) = delete;

  /// Drain what the ring still holds and uninstall. Idempotent.
  void finish();

  const SpanAccumulator& spans() const noexcept { return spans_; }

 private:
  static void drainHook(void* self);
  static void addSegment(void* self, const iobts::obs::TraceEvent* events,
                         std::size_t count);

  iobts::obs::TraceSink sink_;
  SpanAccumulator spans_;
  iobts::obs::TraceSink* previous_ = nullptr;
  bool installed_ = false;
};

/// One MPI-IO request as the tracer saw it complete.
struct ReplayOp {
  int rank = 0;
  bool write = true;
  iobts::Bytes offset = 0;
  iobts::Bytes bytes = 0;
};

/// Counts every completed request; when `timed`, also times each hook
/// (steady_clock around the base call), records it as a "tmio.hook" span in
/// the installed sink (so SpanAccumulator sees where it nested), and keeps
/// the request stream.
class BenchTracer : public iobts::tmio::Tracer {
 public:
  BenchTracer(iobts::tmio::TracerConfig config, bool timed);

  void onSubmit(const iobts::mpisim::RequestInfo& info) override;
  void onComplete(const iobts::mpisim::RequestInfo& info) override;
  void onWaitEnter(const iobts::mpisim::RequestInfo& info) override;
  void onWaitExit(const iobts::mpisim::RequestInfo& info,
                  iobts::Seconds blocked) override;
  void onSyncStart(const iobts::mpisim::RequestInfo& info) override;
  void onSyncEnd(const iobts::mpisim::RequestInfo& info) override;
  iobts::Seconds onFinalize(int rank) override;

  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t errorRequests() const noexcept { return errors_; }
  iobts::Bytes requestedBytes(bool write) const noexcept {
    return write ? write_bytes_ : read_bytes_;
  }
  std::uint64_t hookCalls() const noexcept { return hook_calls_; }
  double hookSeconds() const noexcept { return hook_ns_ * 1e-9; }
  const std::vector<ReplayOp>& stream() const noexcept { return stream_; }

 private:
  template <typename Fn>
  void timedHook(Fn&& fn);

  bool timed_;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  iobts::Bytes write_bytes_ = 0;
  iobts::Bytes read_bytes_ = 0;
  std::uint64_t hook_calls_ = 0;
  std::uint64_t hook_ns_ = 0;
  std::vector<ReplayOp> stream_;
};

/// Where a replayed request lands, and whether its read is verified.
struct ReplayLayout {
  std::function<std::string(const ReplayOp&)> path;
  bool verify_reads = false;
};

struct ReplayResult {
  std::uint64_t files = 0;
  std::uint64_t ops = 0;  // writes + reads + verifies
  std::uint64_t verifies = 0;
  std::uint64_t verify_failures = 0;
  double seconds = 0.0;
};

/// Replay `stream` into a fresh FileStore. Every write carries a tag derived
/// from (rank, reads that rank completed so far), so a read-back verifies
/// against the data of the loop it belongs to.
ReplayResult replayFileStore(const std::vector<ReplayOp>& stream, int ranks,
                             const ReplayLayout& layout);

}  // namespace perfbench
