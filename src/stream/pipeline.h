// Streaming evaluation pipeline: workload sites + tool reports →
// matched site records → confusion counts, in constant memory.
//
// The batch path (vdsim::generate_workload → run_tool → evaluate_report)
// materialises the whole workload and report before matching. That caps
// workload sweeps at what fits in RAM and makes the paper's asymptotic
// questions (how do metrics move as the site count grows 10^4 → 10^7?)
// needlessly expensive. This pipeline streams instead:
//
//   producer thread            bounded ChunkQueue          consumer (caller)
//   ---------------            ------------------          -----------------
//   per-service RNG  ──chunk──▶ backpressure, cancel ──▶   fold into
//   sites + verdicts            (chunk_queue.h)            ConfusionMatrix,
//                                                          checkpoint snaps,
//                                                          then append to the
//                                                          log when recording
//
// Determinism: each service draws from its own RNG seeded by
// service_seed(stream_seed, service_index) — order-independent and
// *prefix-stable*, so the first 10^4 sites of a 10^6-site stream are
// byte-identical to a standalone 10^4-site stream with the same spec. One
// streamed pass with checkpoints therefore IS the whole workload-size
// sweep (experiment E18).
//
// Record/replay: pass StreamIo.record to have the consumer append each
// chunk to a ReportLogWriter once it has folded it, or StreamIo.replay to
// source chunks from a recorded log instead of generating them. The queue
// is FIFO, so the log holds the chunks in stream order, and a recording
// that fails mid-stream is a whole-frame prefix, which replay rejects as
// LogCorrupt (its frames hold fewer sites than its segment tag). A replayed
// stream is byte-identical to the recorded one regardless of platform,
// compiler or thread count.
//
// Fault points "stream.produce" / "stream.consume" (key = decimal chunk
// index) fire per chunk with the standard action set; cancellation is
// cooperative through the installed stats::CancellationToken.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/confusion.h"
#include "stream/record.h"
#include "stream/report_log.h"
#include "vdsim/tool.h"

namespace vdbench::stream {

/// Parameters of one streamed evaluation.
struct StreamSpec {
  /// Candidate analysis sites to stream (the TN frame).
  std::uint64_t total_sites = 0;
  /// Sites per synthetic service; fixing this (rather than drawing service
  /// sizes) is what makes streams prefix-stable across total_sites.
  std::uint32_t sites_per_service = 1000;
  /// Fraction of sites carrying a seeded vulnerability.
  double prevalence = 0.10;
  /// Relative vulnerability class mix (normalised by the draw).
  vdsim::PerClass<double> class_mix = {0.30, 0.20, 0.10, 0.10,
                                       0.10, 0.08, 0.07, 0.05};
  /// Shared-difficulty exponent (see vdsim::WorkloadSpec).
  double difficulty_gamma = 0.0;
  /// The simulated tool under evaluation.
  vdsim::ToolProfile tool;
  /// Stream seed; service s draws from service_seed(seed, s).
  std::uint64_t seed = 0;
  /// Records per chunk travelling through the queue.
  std::uint32_t chunk_sites = 8192;
  /// Queue capacity in chunks — the constant-memory bound.
  std::size_t queue_chunks = 8;

  /// Throws std::invalid_argument when a field is out of range.
  void validate() const;
};

/// Confusion counts frozen after exactly `sites` records.
struct StreamCheckpoint {
  std::uint64_t sites = 0;
  core::ConfusionMatrix cm;
};

/// Outcome of one streamed evaluation.
struct StreamResult {
  core::ConfusionMatrix cm;           ///< final counts over all sites
  std::uint64_t sites = 0;            ///< records consumed
  std::uint64_t chunks = 0;           ///< chunks consumed
  std::uint64_t backpressure_waits = 0;  ///< producer blocking episodes
  std::vector<StreamCheckpoint> checkpoints;  ///< in ascending site order
};

/// Optional record/replay endpoints. At most one may be set. The caller
/// owns both and closes the writer after stream_evaluate returns (a writer
/// may collect several streams as consecutive segments).
struct StreamIo {
  ReportLogWriter* record = nullptr;
  ReportLogReader* replay = nullptr;
};

/// Deterministic per-service seed: order-independent, prefix-stable.
[[nodiscard]] std::uint64_t service_seed(std::uint64_t stream_seed,
                                         std::uint64_t service_index);

/// Run one streamed evaluation. `checkpoints` lists site counts at which
/// to snapshot the running confusion counts (any order; duplicates and
/// values past total_sites are ignored). Producer errors — including
/// injected stream.produce faults and replay-log corruption — propagate to
/// the caller with their original type. Throws stats::Cancelled when the
/// installed cancellation token fires mid-stream, std::invalid_argument on
/// a bad spec or when both StreamIo endpoints are set, std::runtime_error
/// when a replay log's segment tag does not match the spec, and LogCorrupt
/// when the segment's chunks do not hold the sites its tag declares.
[[nodiscard]] StreamResult stream_evaluate(
    const StreamSpec& spec, std::span<const std::uint64_t> checkpoints = {},
    const StreamIo& io = {});

}  // namespace vdbench::stream
