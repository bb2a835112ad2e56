// Binlog v2 container tests: the footer index lets the windowed reader
// skip chunks it proves irrelevant (counters assert the skipping actually
// happened), shard-tagged recording through ShardedBinaryWriter merges
// canonically including degenerate zero-event shards, and the tail reader
// buffers a mid-chunk cut while still snapshotting every complete chunk
// before it. The container bytes do not depend on the ring size or drain
// cadence; an inflated event count is a typed error on every read path,
// an inflated chunk length ends in the documented kind per path, and a
// version-1 recording is bad_version on every path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/binlog.hpp"
#include "obs/trace.hpp"

namespace iobts::obs {
namespace {

/// Enough events to seal several chunks under a tiny flush threshold,
/// spread over [0.5 s, ~21 s] so time windows can select subsets.
void recordSpread(TraceSink& sink, double t0 = 0.0, int events = 200) {
  sink.setProcessName(track::kStreams, "pfs streams");
  for (int i = 0; i < events; ++i) {
    const double ts = t0 + 0.5 + 0.1 * i;
    sink.complete("pfs", (i % 2) ? "transfer.read" : "transfer.write",
                  track::kStreams, std::uint32_t(i % 4), ts, 0.05,
                  4096.0 * (1 + i % 8));
  }
}

std::string writtenWith(std::size_t flush_bytes) {
  TraceSink sink;
  std::string bytes;
  BinaryTraceWriterConfig config;
  config.flush_bytes = flush_bytes;
  BinaryTraceWriter writer(sink, &bytes, config);
  recordSpread(sink);
  writer.close();
  return bytes;
}

TEST(BinlogV2, WindowedReadDecodesOnlyIndexSelectedChunks) {
  // Tiny flush threshold -> many small, time-local event chunks.
  const std::string bytes = writtenWith(256);
  const BinaryTrace full = decodeBinaryTrace(bytes, "<full>");
  ASSERT_GT(full.stats.events_chunks_decoded, 4u);

  TraceWindow window;
  window.from = 5.0;
  window.to = 8.0;
  const BinaryTrace part = decodeBinaryTraceWindow(bytes, "<win>", window);

  // The acceptance gate: the index was consulted and chunks outside the
  // window were never decoded -- their payload bytes stayed unread.
  EXPECT_GT(part.stats.events_chunks_skipped, 0u);
  EXPECT_GT(part.stats.payload_bytes_skipped, 0u);
  EXPECT_EQ(part.stats.events_chunks_decoded +
                part.stats.events_chunks_skipped,
            full.stats.events_chunks_decoded);
  EXPECT_LT(part.stats.events_decoded, full.events.size());

  // Exactly the events whose [ts, ts+dur] span intersects the window, in
  // the same canonical order the full decode yields.
  std::vector<const BinEvent*> expected;
  for (const BinEvent& e : full.events) {
    if (e.ts + e.dur >= window.from && e.ts <= window.to) {
      expected.push_back(&e);
    }
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_EQ(part.events.size(), expected.size());
  EXPECT_EQ(part.stats.events_in_window, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(part.events[i].ts, expected[i]->ts) << i;
    EXPECT_EQ(part.strings[part.events[i].name],
              full.strings[expected[i]->name])
        << i;
  }
}

TEST(BinlogV2, ShardEntirelyOutsideTheWindowIsSkipped) {
  // Shard 0 lives around t=1s, shard 1 around t=100s. A [95, 105] window
  // must decode shard 1's chunks only.
  std::string bytes;
  {
    ShardedBinaryWriter recorder(&bytes);
    TraceSink early, late;
    recorder.attachShard(0, early);
    recorder.attachShard(1, late);
    recordSpread(early, 0.0, 40);   // [0.5, 4.4]
    recordSpread(late, 99.0, 40);   // [99.5, 103.4]
    recorder.close();
  }
  TraceWindow window;
  window.from = 95.0;
  window.to = 105.0;
  const BinaryTrace part = decodeBinaryTraceWindow(bytes, "<shardwin>",
                                                   window);
  EXPECT_GT(part.stats.events_chunks_skipped, 0u);
  ASSERT_EQ(part.events.size(), 40u);
  for (const BinEvent& e : part.events) EXPECT_EQ(e.shard, 1u);

  const BinaryTrace full = decodeBinaryTrace(bytes, "<shardfull>");
  EXPECT_EQ(full.shard_count, 2u);
  EXPECT_EQ(full.events.size(), 80u);
}

TEST(BinlogV2, ZeroEventShardContributesNothingButDecodesCleanly) {
  std::string bytes;
  {
    ShardedBinaryWriter recorder(&bytes);
    TraceSink busy, idle;
    recorder.attachShard(0, busy);
    recorder.attachShard(1, idle);  // never records a single event
    recordSpread(busy, 0.0, 10);
    recorder.close();
    EXPECT_EQ(recorder.events(), 10u);
  }
  const BinaryTrace trace = decodeBinaryTrace(bytes, "<zeroshard>");
  EXPECT_EQ(trace.events.size(), 10u);
  for (const BinEvent& e : trace.events) EXPECT_EQ(e.shard, 0u);
  EXPECT_EQ(trace.totals.recorded, 10u);
}

TEST(BinlogV2, TailReaderBuffersAMidChunkCutAndSnapshotsThePrefix) {
  const std::string bytes = writtenWith(256);
  const BinaryTrace full = decodeBinaryTrace(bytes, "<full>");
  ASSERT_GT(full.index.size(), 4u);

  // Cut inside the middle events chunk: everything before it is complete,
  // the cut chunk itself can only sit in the buffer.
  const BinlogIndexEntry& cut_entry = full.index[full.index.size() / 2];
  const std::size_t cut = static_cast<std::size_t>(cut_entry.offset) + 15;
  ASSERT_LT(cut, bytes.size());

  BinlogTailReader reader("<tail>");
  // Feed in deliberately awkward 7-byte slices: every unit boundary lands
  // mid-read at some point.
  for (std::size_t pos = 0; pos < cut; pos += 7) {
    reader.feed(bytes.data() + pos, std::min<std::size_t>(7, cut - pos));
  }
  EXPECT_TRUE(reader.headerSeen());
  EXPECT_FALSE(reader.finished());
  EXPECT_GT(reader.bufferedBytes(), 0u);
  EXPECT_LT(reader.bufferedBytes(), cut);

  const BinaryTrace prefix = reader.snapshot();
  EXPECT_GT(prefix.events.size(), 0u);
  EXPECT_LT(prefix.events.size(), full.events.size());
  // Whatever decoded so far is a true prefix of the canonical order.
  for (std::size_t i = 0; i < prefix.events.size(); ++i) {
    EXPECT_EQ(prefix.events[i].ts, full.events[i].ts) << i;
  }

  // Feeding the rest converges on the offline decode.
  reader.feed(bytes.data() + cut, bytes.size() - cut);
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(reader.bufferedBytes(), 0u);
  const BinaryTrace done = reader.snapshot();
  EXPECT_EQ(done.events.size(), full.events.size());
  EXPECT_EQ(done.totals.recorded, full.totals.recorded);
  EXPECT_EQ(done.strings, full.strings);
}

/// A small dispatch-shaped stream: pace spans, journey steps and dispatch
/// spans alternating as in a recorded run, enough to seal many chunks
/// under a 1 KiB threshold.
void recordMixed(TraceSink& sink) {
  sink.setProcessName(track::kAdio, "adio");
  for (int i = 0; i < 3000; ++i) {
    const double ts = 0.25 * (i / 3);
    const auto tid = static_cast<std::uint32_t>(i % 16);
    switch (i % 3) {
      case 0:
        sink.complete("adio", "adio.pace", track::kAdio, tid, ts, 1.5);
        break;
      case 1:
        sink.flowStep("journey", "io", track::kAdio, tid, ts,
                      (std::uint64_t{tid} << 32) | 25u);
        break;
      default:
        sink.complete("sim", "dispatch.resume", track::kKernel, 0, ts, 0.0,
                      2048.0 - i);
        break;
    }
  }
}

TEST(BinlogV2, BytesDoNotDependOnRingCapacityOrDrainCadence) {
  // Chunk boundaries are a pure function of the encoded stream: the same
  // events recorded through any ring size, drained at the old (half-full)
  // or the default watermark, give one byte-identical container.
  std::string reference;
  for (const std::size_t capacity : {std::size_t{8}, std::size_t{4096},
                                     std::size_t{65536}}) {
    for (const double watermark :
         {0.5, BinaryTraceWriterConfig{}.occupancy_watermark}) {
      SCOPED_TRACE(std::to_string(capacity) + " events, watermark " +
                   std::to_string(watermark));
      TraceSinkConfig sink_config;
      sink_config.capacity = capacity;
      TraceSink sink(sink_config);
      BinaryTraceWriterConfig config;
      config.occupancy_watermark = watermark;
      config.flush_bytes = 1024;
      std::string bytes;
      BinaryTraceWriter writer(sink, &bytes, config);
      recordMixed(sink);
      ASSERT_TRUE(writer.close());
      EXPECT_EQ(sink.dropped(), 0u);
      if (capacity == 8) EXPECT_GT(writer.batches(), 100u);
      if (reference.empty()) {
        reference = bytes;
        EXPECT_GT(decodeBinaryTrace(bytes, "<mixed>").index.size(), 10u);
      } else {
        EXPECT_TRUE(bytes == reference);
      }
    }
  }
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Feed `bytes` to a tail reader in `slice`-byte reads.
BinlogTailReader& feedAll(BinlogTailReader& reader, const std::string& bytes,
                          std::size_t slice) {
  for (std::size_t pos = 0; pos < bytes.size(); pos += slice) {
    reader.feed(bytes.data() + pos, std::min(slice, bytes.size() - pos));
  }
  return reader;
}

/// The BinlogError `read` throws (a failure if it throws none).
template <typename Read>
BinlogError errorOf(const Read& read) {
  try {
    read();
  } catch (const BinlogError& e) {
    return e;
  }
  ADD_FAILURE() << "defective trace decoded cleanly";
  return BinlogError(BinlogErrorKind::Io, "not reached");
}

TEST(BinlogV2, InflatedEventCountIsMalformedOnEveryReadPath) {
  // An events chunk declaring 0xffffffff records (checksums intact) must
  // end in a typed error, never in an allocation sized by the count.
  const std::string path =
      std::string(IOBTS_TRACE_DIR) + "/invalid/malformed-event_count.bin";
  const auto expectMalformed = [](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "inflated event count decoded cleanly";
    } catch (const BinlogError& e) {
      EXPECT_EQ(e.kind(), BinlogErrorKind::Malformed) << e.what();
      EXPECT_NE(std::string(e.what()).find("declares 4294967295 event"),
                std::string::npos)
          << e.what();
    }
  };
  expectMalformed([&] { readBinaryTrace(path); });
  expectMalformed([&] { readBinaryTraceWindow(path, TraceWindow{}); });
  const std::string bytes = fileBytes(path);
  ASSERT_FALSE(bytes.empty());
  for (const std::size_t slice : {std::size_t{5}, bytes.size()}) {
    expectMalformed([&] {
      BinlogTailReader reader(path);
      feedAll(reader, bytes, slice);
    });
  }
}

TEST(BinlogV2, InflatedChunkLengthKindsFollowTheReadPathPrecedence) {
  // traces/valid_v2.bin with its first chunk's u64 payload length (file
  // offset 16, checksums untouched) inflated. Each read path meets the lie
  // at a different check first (DESIGN.md §13): the whole-file reader runs
  // out of bytes for the declared payload, the windowed reader finds the
  // chunk contradicting its index entry, and the tail reader rejects a
  // length that could never be satisfied -- but only above 2^62; below
  // that it must wait for more bytes, as a live file may still deliver
  // them (iobts_profile --follow then times out as truncated).
  const std::string valid =
      fileBytes(std::string(IOBTS_TRACE_DIR) + "/valid_v2.bin");
  ASSERT_GT(valid.size(), 24u);
  const auto inflated = [&](std::uint64_t len) {
    std::string bytes = valid;
    for (int i = 0; i < 8; ++i) {
      bytes[16 + static_cast<std::size_t>(i)] =
          static_cast<char>((len >> (8 * i)) & 0xff);
    }
    return bytes;
  };
  for (const std::uint64_t len :
       {(std::uint64_t{1} << 63) - 256, std::uint64_t{1} << 40}) {
    SCOPED_TRACE(len);
    const std::string bytes = inflated(len);
    EXPECT_EQ(errorOf([&] { decodeBinaryTrace(bytes, "<whole>"); }).kind(),
              BinlogErrorKind::Truncated);
    EXPECT_EQ(errorOf([&] {
                decodeBinaryTraceWindow(bytes, "<window>", TraceWindow{});
              }).kind(),
              BinlogErrorKind::BadIndex);
  }
  const BinlogError absurd = errorOf([&] {
    BinlogTailReader reader("<tail>");
    feedAll(reader, inflated((std::uint64_t{1} << 63) - 256), 7);
  });
  EXPECT_EQ(absurd.kind(), BinlogErrorKind::Malformed);
  EXPECT_NE(std::string(absurd.what()).find("absurd length"),
            std::string::npos);
  BinlogTailReader waiting("<tail>");
  feedAll(waiting, inflated(std::uint64_t{1} << 40), 7);
  EXPECT_FALSE(waiting.finished());
  EXPECT_EQ(waiting.chunksConsumed(), 0u);
  EXPECT_EQ(waiting.bufferedBytes(), valid.size() - 12);
}

TEST(BinlogV2, V1TraceIsBadVersionOnEveryReadPath) {
  // A real format-version-1 recording (the former valid_v1.bin pin): no
  // current writer produces version 1 and no reader accepts it.
  const std::string path =
      std::string(IOBTS_TRACE_DIR) + "/invalid/bad_version-v1.bin";
  const std::string bytes = fileBytes(path);
  ASSERT_GT(bytes.size(), 12u);
  ASSERT_EQ(bytes[8], 1);
  const auto expectBadVersion = [](const BinlogError& e) {
    EXPECT_EQ(e.kind(), BinlogErrorKind::BadVersion) << e.what();
    EXPECT_NE(std::string(e.what()).find("version 1 "), std::string::npos)
        << e.what();
  };
  expectBadVersion(errorOf([&] { readBinaryTrace(path); }));
  expectBadVersion(
      errorOf([&] { readBinaryTraceWindow(path, TraceWindow{}); }));
  expectBadVersion(errorOf([&] {
    BinlogTailReader reader(path);
    feedAll(reader, bytes, 5);
  }));
}

}  // namespace
}  // namespace iobts::obs
