#include "stream/pipeline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "cache/hash.h"
#include "fault/injector.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats/parallel.h"
#include "stats/rng.h"
#include "stream/chunk_queue.h"

namespace vdbench::stream {

namespace {

void maybe_inject(const char* point, std::uint64_t chunk_index) {
  fault::Injector& injector = fault::Injector::global();
  if (!injector.armed()) return;
  switch (injector.hit(point, std::to_string(chunk_index))) {
    case fault::Action::kThrow:
    case fault::Action::kIoError:
    case fault::Action::kCorrupt:
    case fault::Action::kTruncate:
      throw fault::InjectedFault(std::string("injected ") + point +
                                 " fault for chunk " +
                                 std::to_string(chunk_index));
    case fault::Action::kTimeout:
      stats::stall_until_cancelled(point);
    case fault::Action::kNone:
      break;
  }
}

// Generate the stream and feed the queue. Returns the chunk count.
std::uint64_t generate_chunks(const StreamSpec& spec, ChunkQueue& queue) {
  std::uint64_t chunk_index = 0;
  ReportChunk chunk;
  chunk.records.reserve(spec.chunk_sites);

  // Returns false when the consumer abandoned the queue (stop producing).
  const auto flush = [&]() -> bool {
    const obs::Span span(obs::names::kStreamProduce, std::to_string(chunk_index));
    maybe_inject("stream.produce", chunk_index);
    const std::uint64_t next_first = chunk.first_site + chunk.records.size();
    if (!queue.push(std::move(chunk))) return false;
    obs::count(obs::Counter::kStreamChunksProduced);
    ++chunk_index;
    chunk = ReportChunk{};
    chunk.first_site = next_first;
    chunk.records.reserve(spec.chunk_sites);
    return true;
  };

  std::uint64_t produced = 0;
  for (std::uint64_t service = 0; produced < spec.total_sites; ++service) {
    stats::Rng rng(service_seed(spec.seed, service));
    const std::uint64_t sites_this =
        std::min<std::uint64_t>(spec.sites_per_service,
                                spec.total_sites - produced);
    for (std::uint64_t site = 0; site < sites_this; ++site, ++produced) {
      SiteRecord rec;
      rec.service = static_cast<std::uint32_t>(service);
      rec.site = static_cast<std::uint32_t>(site);
      if (rng.bernoulli(spec.prevalence)) {
        const std::size_t cls = rng.categorical(spec.class_mix);
        rec.truth = static_cast<std::uint8_t>(cls);
        // Triangular difficulty, matching WorkloadSpec's default shape.
        const double difficulty = 0.5 * (rng.uniform() + rng.uniform());
        const double p_detect =
            spec.tool.sensitivity[cls] *
            std::pow(1.0 - difficulty, spec.difficulty_gamma);
        if (rng.bernoulli(p_detect)) {
          rec.claimed = rec.truth;
        } else if (rng.bernoulli(spec.tool.fallout)) {
          rec.claimed = static_cast<std::uint8_t>(
              rng.pick_index(vdsim::kVulnClassCount));
        }
      } else if (rng.bernoulli(spec.tool.fallout)) {
        rec.claimed = static_cast<std::uint8_t>(
            rng.pick_index(vdsim::kVulnClassCount));
      }
      chunk.records.push_back(rec);
      if (chunk.records.size() >= spec.chunk_sites && !flush())
        return chunk_index;
    }
  }
  if (!chunk.records.empty()) (void)flush();
  return chunk_index;
}

// Source the stream from a recorded log instead of generating it.
std::uint64_t replay_chunks(const StreamSpec& spec, ChunkQueue& queue,
                            ReportLogReader& reader) {
  std::optional<LogFrame> frame = reader.next();
  if (!frame || frame->kind != LogFrame::Kind::kSegment)
    throw std::runtime_error(
        "replay log: expected a segment frame at stream start");
  if (frame->segment_tag != spec.total_sites)
    throw std::runtime_error(
        "replay log: stream was recorded with " +
        std::to_string(frame->segment_tag) + " sites, spec expects " +
        std::to_string(spec.total_sites));

  std::uint64_t chunk_index = 0;
  std::uint64_t sites = 0;
  while (true) {
    const LogFrame* peeked = reader.peek();
    if (peeked == nullptr || peeked->kind == LogFrame::Kind::kSegment) break;
    frame = reader.next();
    const obs::Span span(obs::names::kStreamProduce, std::to_string(chunk_index));
    maybe_inject("stream.produce", chunk_index);
    sites += frame->chunk.records.size();
    if (!queue.push(std::move(frame->chunk))) return chunk_index;
    obs::count(obs::Counter::kStreamChunksProduced);
    ++chunk_index;
  }
  if (sites != spec.total_sites) {
    // The tag matched the spec, so the frames, not the spec, are short (a
    // recording cut at a frame boundary) or long.
    obs::count(obs::Counter::kLogCorruptions);
    throw LogCorrupt("segment tagged " + std::to_string(spec.total_sites) +
                     " sites holds " + std::to_string(sites));
  }
  return chunk_index;
}

// Fold the queue's chunks, appending each to `record` (when set) once it
// is folded, so a failed recording ends on a whole frame.
StreamResult consume_chunks(const StreamSpec& spec, ChunkQueue& queue,
                            std::vector<std::uint64_t> checkpoints,
                            ReportLogWriter* record) {
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());

  StreamResult result;
  std::size_t next_cp = 0;
  while (next_cp < checkpoints.size() && checkpoints[next_cp] == 0) {
    result.checkpoints.push_back({0, result.cm});
    ++next_cp;
  }
  if (record != nullptr) record->begin_segment(spec.total_sites);
  while (std::optional<ReportChunk> chunk = queue.pop()) {
    const obs::Span span(obs::names::kStreamConsume, std::to_string(result.chunks));
    maybe_inject("stream.consume", result.chunks);
    const std::uint64_t end = result.sites + chunk->records.size();
    if (next_cp < checkpoints.size() && checkpoints[next_cp] <= end) {
      // A checkpoint lands inside this chunk: fold record by record so the
      // snapshot is exact at the requested site count.
      for (const SiteRecord& rec : chunk->records) {
        accumulate(rec, result.cm);
        ++result.sites;
        while (next_cp < checkpoints.size() &&
               checkpoints[next_cp] == result.sites) {
          result.checkpoints.push_back({result.sites, result.cm});
          ++next_cp;
        }
      }
    } else {
      accumulate(*chunk, result.cm);
      result.sites = end;
    }
    if (record != nullptr) record->append(*chunk);
    ++result.chunks;
    obs::count(obs::Counter::kStreamChunksConsumed);
    obs::count(obs::Counter::kStreamSites, chunk->records.size());
  }
  return result;
}

}  // namespace

void StreamSpec::validate() const {
  if (total_sites == 0)
    throw std::invalid_argument("StreamSpec: total_sites must be >= 1");
  if (sites_per_service == 0)
    throw std::invalid_argument("StreamSpec: sites_per_service must be >= 1");
  if (prevalence < 0.0 || prevalence > 1.0)
    throw std::invalid_argument("StreamSpec: prevalence must be in [0,1]");
  if (difficulty_gamma < 0.0)
    throw std::invalid_argument("StreamSpec: difficulty_gamma must be >= 0");
  if (chunk_sites == 0)
    throw std::invalid_argument("StreamSpec: chunk_sites must be >= 1");
  if (queue_chunks == 0)
    throw std::invalid_argument("StreamSpec: queue_chunks must be >= 1");
  double mix_sum = 0.0;
  for (const double w : class_mix) {
    if (w < 0.0)
      throw std::invalid_argument("StreamSpec: class_mix must be >= 0");
    mix_sum += w;
  }
  if (prevalence > 0.0 && mix_sum <= 0.0)
    throw std::invalid_argument(
        "StreamSpec: class_mix must have positive mass when prevalence > 0");
  tool.validate();
}

std::uint64_t service_seed(std::uint64_t stream_seed,
                           std::uint64_t service_index) {
  // Hash-mixed (not split()-derived) so the seed depends only on the
  // service index, never on generation order — the prefix-stability
  // contract the E18 checkpoint sweep relies on.
  std::uint64_t h = cache::fnv1a64("vdbench-stream-service-v1");
  h = cache::fnv1a64(std::to_string(stream_seed), h);
  h = cache::fnv1a64(":", h);
  h = cache::fnv1a64(std::to_string(service_index), h);
  return h;
}

StreamResult stream_evaluate(const StreamSpec& spec,
                             std::span<const std::uint64_t> checkpoints,
                             const StreamIo& io) {
  spec.validate();
  if (io.record != nullptr && io.replay != nullptr)
    throw std::invalid_argument(
        "stream_evaluate: record and replay are mutually exclusive");

  ChunkQueue queue(spec.queue_chunks);
  std::thread producer([&] {
    try {
      if (io.replay != nullptr)
        replay_chunks(spec, queue, *io.replay);
      else
        generate_chunks(spec, queue);
      queue.close();
    } catch (...) {
      queue.fail(std::current_exception());
    }
  });

  StreamResult result;
  try {
    result = consume_chunks(
        spec, queue,
        std::vector<std::uint64_t>(checkpoints.begin(), checkpoints.end()),
        io.record);
  } catch (...) {
    queue.abandon();
    producer.join();
    throw;
  }
  producer.join();
  result.backpressure_waits = queue.backpressure_waits();
  return result;
}

}  // namespace vdbench::stream
