#include "obs/registry.h"

namespace vdbench::obs {

std::string_view counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kCacheHits: return "cache.hits";
    case Counter::kCacheMisses: return "cache.misses";
    case Counter::kCacheCorruptions: return "cache.corruptions";
    case Counter::kCacheStores: return "cache.stores";
    case Counter::kCacheEvictions: return "cache.evictions";
    case Counter::kBytesWritten: return "bytes.written";
    case Counter::kTasksExecuted: return "tasks.executed";
    case Counter::kTasksCancelled: return "tasks.cancelled";
    case Counter::kExperimentsComputed: return "experiments.computed";
    case Counter::kExperimentsReplayed: return "experiments.replayed";
    case Counter::kExperimentsFailed: return "experiments.failed";
    case Counter::kRetries: return "retries";
    case Counter::kFaultFires: return "fault.fires";
    case Counter::kManifestWrites: return "manifest.writes";
    case Counter::kTraceEvents: return "trace.events";
    case Counter::kStreamChunksProduced: return "stream.chunks.produced";
    case Counter::kStreamChunksConsumed: return "stream.chunks.consumed";
    case Counter::kStreamSites: return "stream.sites";
    case Counter::kStreamBackpressureWaits: return "stream.backpressure.waits";
    case Counter::kLogBytesWritten: return "log.bytes.written";
    case Counter::kLogBytesRead: return "log.bytes.read";
    case Counter::kLogCorruptions: return "log.corruptions";
    case Counter::kNetSessionsAccepted: return "net.sessions.accepted";
    case Counter::kNetSessionsRejected: return "net.sessions.rejected";
    case Counter::kNetSessionsCancelled: return "net.sessions.cancelled";
    case Counter::kNetSessionsCompleted: return "net.sessions.completed";
    case Counter::kNetBytesIn: return "net.bytes.in";
    case Counter::kNetBytesOut: return "net.bytes.out";
    case Counter::kCorpusReads: return "corpus.reads";
    case Counter::kCorpusFindings: return "corpus.findings";
    case Counter::kCorpusSites: return "corpus.sites";
    case Counter::kCorpusStrayFindings: return "corpus.findings.stray";
  }
  return "unknown";
}

std::string_view gauge_name(Gauge gauge) noexcept {
  switch (gauge) {
    case Gauge::kThreads: return "threads";
    case Gauge::kCacheEntries: return "cache.entries";
    case Gauge::kCacheBytes: return "cache.bytes";
    case Gauge::kNetQueueDepth: return "net.queue.depth";
  }
  return "unknown";
}

CounterSnapshot CounterSnapshot::since(const CounterSnapshot& earlier) const
    noexcept {
  CounterSnapshot delta;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    delta.values[i] = values[i] - earlier.values[i];
  return delta;
}

CounterSnapshot Registry::snapshot() const noexcept {
  CounterSnapshot snap;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    snap.values[i] = counters_[i].load(std::memory_order_relaxed);
  return snap;
}

void Registry::reset() noexcept {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace vdbench::obs
