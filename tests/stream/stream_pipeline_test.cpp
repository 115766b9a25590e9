// Streaming-pipeline semantics tests: chunking/queue-depth invariance,
// prefix stability (the property that makes one checkpointed pass equal a
// whole workload-size sweep), checkpoint handling, record→replay identity,
// the bytes of a recorded log, replay/spec mismatch rejection, cooperative
// cancellation, typed propagation of stream.produce / stream.consume
// injected faults, and rejection of a recording a fault cut short. The
// invariance and prefix checks also run E18's own stream at 10^5 sites.
// Lives in the parallel test binary so the producer/consumer pair runs
// under tsan.
#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "experiments.h"
#include "fault/injector.h"
#include "obs/registry.h"
#include "stats/parallel.h"

namespace vdbench::stream {
namespace {

namespace fs = std::filesystem;

StreamSpec small_spec(std::uint64_t total_sites = 20'000) {
  StreamSpec spec;
  spec.total_sites = total_sites;
  spec.tool = vdsim::make_archetype_profile(
      vdsim::ToolArchetype::kStaticAnalyzer, 0.6, "unit-tool");
  spec.seed = 20150622;
  spec.chunk_sites = 1024;
  spec.queue_chunks = 4;
  return spec;
}

// The stream E18 evaluates, cut to a size a unit test affords.
StreamSpec e18_spec(std::uint64_t total_sites = 100'000) {
  StreamSpec spec = bench::e18_stream_spec();
  spec.total_sites = total_sites;
  return spec;
}

class StreamPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdstream_test_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::Injector::global().disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(StreamPipelineTest, ResultIsInvariantToChunkSizeAndQueueDepth) {
  for (const StreamSpec& base : {small_spec(), e18_spec()}) {
    SCOPED_TRACE(base.tool.name);
    StreamSpec coarse = base;
    coarse.chunk_sites = 8192;
    coarse.queue_chunks = 8;
    const StreamResult a = stream_evaluate(coarse);
    // 257 is deliberately not a divisor of anything.
    for (const auto& [chunk, queue] :
         {std::pair<std::uint32_t, std::size_t>{1024, 2}, {257, 1}}) {
      StreamSpec fine = base;
      fine.chunk_sites = chunk;
      fine.queue_chunks = queue;
      const StreamResult b = stream_evaluate(fine);
      EXPECT_EQ(a.cm, b.cm) << "chunk " << chunk << ", queue " << queue;
      EXPECT_EQ(a.sites, b.sites) << "chunk " << chunk << ", queue " << queue;
    }
    EXPECT_EQ(a.sites, base.total_sites);
    // The stream exercised all four confusion cells at this size.
    EXPECT_GT(a.cm.tp, 0u);
    EXPECT_GT(a.cm.fp, 0u);
    EXPECT_GT(a.cm.tn, 0u);
    EXPECT_GT(a.cm.fn, 0u);
  }
}

TEST_F(StreamPipelineTest, RepeatedRunsAreBitIdentical) {
  const StreamSpec spec = small_spec();
  const StreamResult a = stream_evaluate(spec);
  const StreamResult b = stream_evaluate(spec);
  EXPECT_EQ(a.cm, b.cm);
  EXPECT_EQ(a.sites, b.sites);
  EXPECT_EQ(a.chunks, b.chunks);
}

TEST_F(StreamPipelineTest, CheckpointIsPrefixStableAcrossTotalSites) {
  // The 10^4 checkpoint of a larger stream (2*10^4 unit-tool sites, 10^5
  // E18 sites) must equal a standalone 10^4-site stream: per-service
  // seeding makes prefixes independent of the declared total.
  const std::vector<std::uint64_t> cps = {10'000};
  for (const auto& [whole, prefix] :
       {std::pair{small_spec(20'000), small_spec(10'000)},
        std::pair{e18_spec(100'000), e18_spec(10'000)}}) {
    SCOPED_TRACE(whole.tool.name);
    const StreamResult large = stream_evaluate(whole, cps);
    const StreamResult small = stream_evaluate(prefix);
    ASSERT_EQ(large.checkpoints.size(), 1u);
    EXPECT_EQ(large.checkpoints[0].sites, 10'000u);
    EXPECT_EQ(large.checkpoints[0].cm, small.cm);
    EXPECT_EQ(small.sites, 10'000u);
  }
}

TEST_F(StreamPipelineTest, CheckpointsAreSortedDedupedAndClamped) {
  // Unordered, duplicated, and past-the-end checkpoint requests: the
  // result lists each in-range value once, ascending; the final counts
  // equal the last checkpoint when it lands on total_sites.
  const std::vector<std::uint64_t> cps = {15'000, 5'000, 5'000, 20'000,
                                          999'999'999};
  const StreamResult result = stream_evaluate(small_spec(20'000), cps);
  ASSERT_EQ(result.checkpoints.size(), 3u);
  EXPECT_EQ(result.checkpoints[0].sites, 5'000u);
  EXPECT_EQ(result.checkpoints[1].sites, 15'000u);
  EXPECT_EQ(result.checkpoints[2].sites, 20'000u);
  EXPECT_EQ(result.checkpoints[2].cm, result.cm);
  // Monotone growth: each snapshot's counts are componentwise ≤ the next.
  for (std::size_t i = 1; i < result.checkpoints.size(); ++i) {
    EXPECT_LE(result.checkpoints[i - 1].cm.tp, result.checkpoints[i].cm.tp);
    EXPECT_LE(result.checkpoints[i - 1].cm.fp, result.checkpoints[i].cm.fp);
    EXPECT_LE(result.checkpoints[i - 1].cm.tn, result.checkpoints[i].cm.tn);
    EXPECT_LE(result.checkpoints[i - 1].cm.fn, result.checkpoints[i].cm.fn);
  }
}

TEST_F(StreamPipelineTest, ConsumerFoldMatchesAnIndependentFoldOfTheLog) {
  // Record a stream, then re-fold the raw log records with the plain
  // accumulate() helper: the concurrent pipeline must agree with the
  // single-threaded reference fold.
  const StreamSpec spec = small_spec();
  const fs::path log = dir_ / "stream.vdrlog";
  StreamResult live;
  {
    ReportLogWriter writer(log);
    StreamIo io;
    io.record = &writer;
    live = stream_evaluate(spec, {}, io);
    writer.close();
  }

  core::ConfusionMatrix folded;
  std::uint64_t folded_sites = 0;
  ReportLogReader reader(log);
  std::optional<LogFrame> frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->kind, LogFrame::Kind::kSegment);
  EXPECT_EQ(frame->segment_tag, spec.total_sites);
  while ((frame = reader.next()).has_value()) {
    ASSERT_EQ(frame->kind, LogFrame::Kind::kChunk);
    folded_sites += frame->chunk.records.size();
    accumulate(frame->chunk, folded);
  }
  EXPECT_EQ(folded, live.cm);
  EXPECT_EQ(folded_sites, live.sites);
}

TEST_F(StreamPipelineTest, ReplayReproducesTheRecordedStreamExactly) {
  const StreamSpec spec = small_spec();
  const std::vector<std::uint64_t> cps = {5'000, 15'000};
  const fs::path log = dir_ / "stream.vdrlog";
  StreamResult recorded;
  {
    ReportLogWriter writer(log);
    StreamIo io;
    io.record = &writer;
    recorded = stream_evaluate(spec, cps, io);
    writer.close();
  }

  ReportLogReader reader(log);
  StreamIo io;
  io.replay = &reader;
  const StreamResult replayed = stream_evaluate(spec, cps, io);
  EXPECT_EQ(replayed.cm, recorded.cm);
  EXPECT_EQ(replayed.sites, recorded.sites);
  EXPECT_EQ(replayed.chunks, recorded.chunks);
  ASSERT_EQ(replayed.checkpoints.size(), recorded.checkpoints.size());
  for (std::size_t i = 0; i < replayed.checkpoints.size(); ++i) {
    EXPECT_EQ(replayed.checkpoints[i].sites, recorded.checkpoints[i].sites);
    EXPECT_EQ(replayed.checkpoints[i].cm, recorded.checkpoints[i].cm);
  }
}

TEST_F(StreamPipelineTest, RecordedLogHasThePinnedBytes) {
  // ReportLogTest pins the codec on hand-built chunks, and CI compares two
  // recordings by one binary; neither sees which chunks the pipeline hands
  // the writer, in which order, under which segment tag. Which thread
  // writes the log must not move a byte of it. The digest is that of the
  // version 1 recording re-framed as version 2 by
  // tests/support/envelope_pins.py --reframe.
  constexpr std::uint64_t kSmallSpecLogDigest = 0x47b11722e1b4987bULL;
  const fs::path log = dir_ / "stream.vdrlog";
  ReportLogWriter writer(log);
  StreamIo io;
  io.record = &writer;
  (void)stream_evaluate(small_spec(), {}, io);
  writer.close();
  EXPECT_EQ(file_digest(log), kSmallSpecLogDigest);
}

TEST_F(StreamPipelineTest, ReplayRejectsAMismatchedSpec) {
  const StreamSpec spec = small_spec();
  const fs::path log = dir_ / "stream.vdrlog";
  {
    ReportLogWriter writer(log);
    StreamIo io;
    io.record = &writer;
    (void)stream_evaluate(spec, {}, io);
    writer.close();
  }

  StreamSpec wrong = spec;
  wrong.total_sites = spec.total_sites * 2;  // log's segment tag disagrees
  ReportLogReader reader(log);
  StreamIo io;
  io.replay = &reader;
  EXPECT_THROW((void)stream_evaluate(wrong, {}, io), std::runtime_error);
}

TEST_F(StreamPipelineTest, BothIoEndpointsIsInvalid) {
  const fs::path log = dir_ / "stream.vdrlog";
  ReportLogWriter writer(log);
  writer.close();
  ReportLogWriter writer2(dir_ / "other.vdrlog");
  ReportLogReader reader(log);
  StreamIo io;
  io.record = &writer2;
  io.replay = &reader;
  EXPECT_THROW((void)stream_evaluate(small_spec(), {}, io),
               std::invalid_argument);
  writer2.close();
}

TEST_F(StreamPipelineTest, BadSpecIsRejected) {
  StreamSpec spec = small_spec();
  spec.chunk_sites = 0;
  EXPECT_THROW((void)stream_evaluate(spec), std::invalid_argument);
  spec = small_spec();
  spec.queue_chunks = 0;
  EXPECT_THROW((void)stream_evaluate(spec), std::invalid_argument);
  spec = small_spec();
  spec.prevalence = 1.5;
  EXPECT_THROW((void)stream_evaluate(spec), std::invalid_argument);
}

TEST_F(StreamPipelineTest, CancellationStopsTheStreamMidFlight) {
  stats::CancellationToken token;
  stats::ScopedCancellationToken install(&token);
  StreamSpec spec = small_spec(50'000'000);  // far more than we will allow
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.request_cancel();
  });
  EXPECT_THROW((void)stream_evaluate(spec), stats::Cancelled);
  canceller.join();
}

TEST_F(StreamPipelineTest, ProducerFaultPropagatesWithItsType) {
  fault::Injector::global().arm("stream.produce=throw@3:1");
  EXPECT_THROW((void)stream_evaluate(small_spec()), fault::InjectedFault);
}

TEST_F(StreamPipelineTest, ConsumerFaultPropagatesWithItsType) {
  fault::Injector::global().arm("stream.consume=throw@2:1");
  EXPECT_THROW((void)stream_evaluate(small_spec()), fault::InjectedFault);
}

TEST_F(StreamPipelineTest, ConsumerFaultLeavesAFramePrefixThatReplayRejects) {
  // The consumer appends each chunk after folding it, so a recording cut
  // at chunk 3 holds the segment frame and chunks 0..2, ending on a frame
  // boundary. Its chunks hold fewer sites than its segment tag, and replay
  // must call that a corrupt log, not a mismatched spec.
  const StreamSpec spec = small_spec();
  const fs::path log = dir_ / "stream.vdrlog";
  {
    ReportLogWriter writer(log);
    StreamIo io;
    io.record = &writer;
    fault::Injector::global().arm("stream.consume=throw@3:1");
    EXPECT_THROW((void)stream_evaluate(spec, {}, io), fault::InjectedFault);
    fault::Injector::global().disarm();
    writer.close();
  }
  {
    ReportLogReader reader(log);
    std::optional<LogFrame> frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, LogFrame::Kind::kSegment);
    EXPECT_EQ(frame->segment_tag, spec.total_sites);
    for (const std::uint64_t first_site : {0u, 1024u, 2048u}) {
      frame = reader.next();
      ASSERT_TRUE(frame.has_value());
      ASSERT_EQ(frame->kind, LogFrame::Kind::kChunk);
      EXPECT_EQ(frame->chunk.first_site, first_site);
      EXPECT_EQ(frame->chunk.records.size(), spec.chunk_sites);
    }
    EXPECT_FALSE(reader.next().has_value());
  }

  const obs::CounterSnapshot before = obs::Registry::global().snapshot();
  ReportLogReader reader(log);
  StreamIo io;
  io.replay = &reader;
  EXPECT_THROW((void)stream_evaluate(spec, {}, io), LogCorrupt);
  EXPECT_EQ(obs::Registry::global().snapshot().since(before)
                [obs::Counter::kLogCorruptions],
            1u);
}

TEST_F(StreamPipelineTest, RunAfterFaultIsCleanAndBitIdentical) {
  // The retry story: a faulted attempt must leave no residue. Stream once
  // cleanly, fault the next attempt, then stream again — the third run
  // matches the first bit for bit.
  const StreamSpec spec = small_spec();
  const StreamResult before = stream_evaluate(spec);
  fault::Injector::global().arm("stream.produce=io_error@2:1");
  EXPECT_THROW((void)stream_evaluate(spec), std::exception);
  fault::Injector::global().disarm();
  const StreamResult after = stream_evaluate(spec);
  EXPECT_EQ(after.cm, before.cm);
  EXPECT_EQ(after.sites, before.sites);
  EXPECT_EQ(after.chunks, before.chunks);
}

TEST_F(StreamPipelineTest, ServiceSeedIsOrderIndependent) {
  // Hash-mixed, not sequential: permuting service indices permutes seeds
  // without changing any individual value, and distinct indices collide
  // with negligible probability on a small probe set.
  const std::uint64_t a = service_seed(42, 0);
  const std::uint64_t b = service_seed(42, 1);
  const std::uint64_t c = service_seed(42, 1'000'000);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(service_seed(42, 1), b);       // pure function
  EXPECT_NE(service_seed(43, 1), b);       // stream seed matters
}

}  // namespace
}  // namespace vdbench::stream
