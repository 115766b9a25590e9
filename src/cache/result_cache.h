// Content-addressed on-disk cache for experiment results.
//
// The reproduction's experiments are pure functions of (experiment id,
// configuration, study seed, engine schema version): PR 1 made every result
// bit-identical for any thread count, which makes them perfectly cacheable.
// ResultCache exploits that — each experiment's exported JSON payload is
// stored under a stable FNV-1a digest of those four inputs, so a re-run of
// the study serves unchanged experiments from disk at zero compute cost.
//
// Design points:
//  * Entries are single files, `<digest-hex>.vdc`, written atomically via
//    temp-file + rename; readers never observe a half-written entry.
//  * Every entry carries a header (magic, format version, key digest,
//    payload size, payload checksum). Anything that fails validation —
//    truncation, bit rot, a foreign file, an old format — is treated as a
//    miss and deleted; corruption can cost recompute time, never a crash.
//  * An LRU size cap bounds the directory. Recency comes from timestamps
//    the CALLER passes in (the driver passes wall-clock seconds, tests pass
//    logical counters), so the cache itself never reads a clock and its
//    behaviour is fully deterministic under test.
//  * Single-writer: concurrent vdbench processes sharing one directory are
//    not coordinated (last rename wins, which is safe but may waste work).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vdbench::cache {

/// Atomic publish: write a sibling ".tmp" file, flush, then rename over the
/// target — readers (and a crash at any instant) see either the old complete
/// file or the new complete file, never a torn write. Every cache entry and
/// index write uses this; the driver reuses it for run manifests and JSON
/// exports so the whole harness shares one crash-safety discipline.
[[nodiscard]] bool write_file_atomic(const std::filesystem::path& path,
                                     std::string_view content);

/// The whole file at `path`, or nullopt when it cannot be opened or read.
/// Cache entries, the driver's --resume manifest and the exports the
/// daemon sends back are all read through this one function.
[[nodiscard]] std::optional<std::string> read_file(
    const std::filesystem::path& path);

/// The identity of one cacheable experiment result. Hashing length-prefixes
/// each field, so distinct tuples cannot collide by concatenation.
struct CacheKey {
  std::string experiment_id;   ///< e.g. "e7"
  std::string config;          ///< serialized experiment configuration
  std::uint64_t seed = 0;      ///< study seed the run would use
  std::uint32_t schema_version = 0;  ///< engine/payload schema version

  /// Stable 64-bit content digest; identical across processes and runs.
  [[nodiscard]] std::uint64_t digest() const;
  /// digest() in fixed-width hex — the entry's on-disk name stem.
  [[nodiscard]] std::string hex() const;
};

/// Operation counters for one ResultCache instance (not persisted).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
  std::size_t evictions = 0;
  std::size_t corrupt_entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ResultCache {
 public:
  struct Config {
    std::filesystem::path dir;
    /// LRU cap on the summed payload bytes; at least one entry is always
    /// retained so a single oversized payload still caches.
    std::uint64_t max_bytes = 256ULL << 20;
  };

  /// Opens (creating if needed) the cache directory and loads the LRU
  /// index, adopting any entries present on disk but missing from the
  /// index. Throws std::runtime_error when the directory cannot be created.
  explicit ResultCache(Config config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Payload for `key`, or nullopt on miss. A validation failure counts as
  /// corruption, deletes the bad entry and reports a miss. `now` is the
  /// caller's timestamp for LRU recency.
  [[nodiscard]] std::optional<std::string> fetch(const CacheKey& key,
                                                 std::uint64_t now);

  /// Persist `payload` under `key` (overwriting any previous entry), then
  /// evict least-recently-used entries until the size cap holds. Returns
  /// false when the entry could not be written (e.g. unwritable dir).
  bool store(const CacheKey& key, std::string_view payload,
             std::uint64_t now);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return config_.dir;
  }

  /// Directory resolution used by the driver: explicit path if non-empty,
  /// else $VDBENCH_CACHE_DIR, else ".vdbench-cache" under the cwd.
  [[nodiscard]] static std::filesystem::path resolve_dir(
      std::string_view explicit_dir);

  /// Size cap resolution: explicit value if non-zero, else
  /// $VDBENCH_CACHE_MAX_BYTES, else the 256 MiB default.
  [[nodiscard]] static std::uint64_t resolve_max_bytes(
      std::uint64_t explicit_max);

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;
  };

  [[nodiscard]] std::filesystem::path entry_path(std::uint64_t digest) const;
  [[nodiscard]] std::filesystem::path index_path() const;
  Entry* find_entry(std::uint64_t digest);
  void erase_entry(std::uint64_t digest, bool count_eviction);
  void evict_to_cap();
  void load_index();
  void save_index() const;
  /// Mirror entry count / total bytes into the obs gauge registry.
  void sync_gauges() const;

  Config config_;
  std::vector<Entry> entries_;
  std::uint64_t total_bytes_ = 0;
  CacheStats stats_;
};

}  // namespace vdbench::cache
