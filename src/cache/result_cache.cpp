#include "cache/result_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "cache/hash.h"
#include "fault/injector.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "stats/env.h"

namespace vdbench::cache {

namespace {

// Entry file layout: one header line, then the payload verbatim.
//   VDCACHE <format> <key-digest-hex> <payload-bytes> <payload-fnv-hex>\n
constexpr std::string_view kMagic = "VDCACHE";
constexpr int kFormatVersion = 1;
constexpr std::string_view kEntryExtension = ".vdc";
constexpr std::string_view kIndexName = "index.tsv";

struct ParsedEntry {
  std::uint64_t digest = 0;
  std::string payload;
};

// Validate and decode one entry file; nullopt on any structural or
// integrity failure (wrong magic/version, digest mismatch, truncated or
// overlong payload, checksum mismatch).
std::optional<ParsedEntry> parse_entry(const std::string& raw) {
  const std::size_t newline = raw.find('\n');
  if (newline == std::string::npos) return std::nullopt;
  std::istringstream header(raw.substr(0, newline));
  std::string magic, digest_hex, checksum_hex;
  int version = 0;
  std::uint64_t payload_bytes = 0;
  if (!(header >> magic >> version >> digest_hex >> payload_bytes >>
        checksum_hex))
    return std::nullopt;
  if (magic != kMagic || version != kFormatVersion) return std::nullopt;
  ParsedEntry entry;
  std::uint64_t checksum = 0;
  if (!from_hex64(digest_hex, entry.digest) ||
      !from_hex64(checksum_hex, checksum))
    return std::nullopt;
  if (raw.size() - newline - 1 != payload_bytes) return std::nullopt;
  entry.payload = raw.substr(newline + 1);
  if (fnv1a64(entry.payload) != checksum) return std::nullopt;
  return entry;
}

std::string render_entry(std::uint64_t digest, std::string_view payload) {
  std::ostringstream out;
  out << kMagic << ' ' << kFormatVersion << ' ' << to_hex64(digest) << ' '
      << payload.size() << ' ' << to_hex64(fnv1a64(payload)) << '\n'
      << payload;
  return std::move(out).str();
}

}  // namespace

bool write_file_atomic(const std::filesystem::path& path,
                       std::string_view content) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    if (!out.flush()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  obs::count(obs::Counter::kBytesWritten, content.size());
  return true;
}

std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

std::uint64_t CacheKey::digest() const {
  // Length-prefix every variable-width field; fixed-width fields are
  // rendered in decimal between delimiters the fields cannot contain.
  std::uint64_t h = fnv1a64("vdbench-cache-key-v1");
  const auto mix = [&h](std::string_view field) {
    h = fnv1a64(std::to_string(field.size()), h);
    h = fnv1a64(":", h);
    h = fnv1a64(field, h);
    h = fnv1a64(";", h);
  };
  mix(experiment_id);
  mix(config);
  mix(std::to_string(seed));
  mix(std::to_string(schema_version));
  return h;
}

std::string CacheKey::hex() const { return to_hex64(digest()); }

ResultCache::ResultCache(Config config) : config_(std::move(config)) {
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec && !std::filesystem::is_directory(config_.dir))
    throw std::runtime_error("ResultCache: cannot create cache directory " +
                             config_.dir.string() + ": " + ec.message());
  load_index();
}

std::optional<std::string> ResultCache::fetch(const CacheKey& key,
                                              std::uint64_t now) {
  const obs::Span span(obs::names::kCacheFetch, key.experiment_id);
  // Fault hook `cache.read` (key = experiment id): io_error behaves like an
  // unreadable file (plain miss, entry left intact); corrupt/truncate mangle
  // the bytes in flight so the checksum/validation recovery path runs for
  // real — detection, deletion, recompute.
  fault::Injector& injector = fault::Injector::global();
  const fault::Action injected =
      injector.armed() ? injector.hit("cache.read", key.experiment_id)
                       : fault::Action::kNone;
  if (injected == fault::Action::kThrow)
    throw fault::InjectedFault("injected cache.read fault for " +
                               key.experiment_id);
  if (injected == fault::Action::kIoError) {
    ++stats_.misses;
    obs::count(obs::Counter::kCacheMisses);
    return std::nullopt;
  }
  const std::uint64_t digest = key.digest();
  const std::filesystem::path path = entry_path(digest);
  std::optional<std::string> raw = read_file(path);
  if (raw) {
    if (injected == fault::Action::kCorrupt)
      fault::flip_one_bit(*raw, injector.total_fired());
    else if (injected == fault::Action::kTruncate)
      fault::truncate_tail(*raw);
  }
  if (!raw) {
    // No file: drop any stale index row and report a plain miss.
    if (find_entry(digest) != nullptr) erase_entry(digest, false);
    ++stats_.misses;
    obs::count(obs::Counter::kCacheMisses);
    sync_gauges();
    return std::nullopt;
  }
  const std::optional<ParsedEntry> entry = parse_entry(*raw);
  if (!entry || entry->digest != digest) {
    ++stats_.corrupt_entries;
    ++stats_.misses;
    obs::count(obs::Counter::kCacheCorruptions);
    obs::count(obs::Counter::kCacheMisses);
    obs::instant(obs::names::kCacheCorrupt, key.experiment_id);
    erase_entry(digest, false);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    sync_gauges();
    return std::nullopt;
  }
  Entry* indexed = find_entry(digest);
  if (indexed == nullptr) {
    // Entry exists on disk but predates this instance's index (e.g. an
    // earlier process wrote it): adopt it.
    entries_.push_back({digest, entry->payload.size(), now});
    total_bytes_ += entry->payload.size();
  } else {
    indexed->last_used = now;
  }
  save_index();
  ++stats_.hits;
  obs::count(obs::Counter::kCacheHits);
  sync_gauges();
  return entry->payload;
}

bool ResultCache::store(const CacheKey& key, std::string_view payload,
                        std::uint64_t now) {
  const obs::Span span(obs::names::kCacheStore, key.experiment_id);
  // Fault hook `cache.write` (key = experiment id): io_error simulates
  // ENOSPC (a failed store — the atomic discipline guarantees no partial
  // file either way); corrupt/truncate persist a damaged entry so the next
  // fetch exercises checksum detection and recompute.
  fault::Injector& injector = fault::Injector::global();
  const fault::Action injected =
      injector.armed() ? injector.hit("cache.write", key.experiment_id)
                       : fault::Action::kNone;
  if (injected == fault::Action::kThrow)
    throw fault::InjectedFault("injected cache.write fault for " +
                               key.experiment_id);
  if (injected == fault::Action::kIoError) return false;
  const std::uint64_t digest = key.digest();
  std::string entry = render_entry(digest, payload);
  if (injected == fault::Action::kCorrupt)
    fault::flip_one_bit(entry, injector.total_fired());
  else if (injected == fault::Action::kTruncate)
    fault::truncate_tail(entry);
  if (!write_file_atomic(entry_path(digest), entry)) return false;
  if (Entry* existing = find_entry(digest)) {
    total_bytes_ -= existing->bytes;
    existing->bytes = payload.size();
    existing->last_used = now;
    total_bytes_ += payload.size();
  } else {
    entries_.push_back({digest, payload.size(), now});
    total_bytes_ += payload.size();
  }
  ++stats_.stores;
  obs::count(obs::Counter::kCacheStores);
  evict_to_cap();
  save_index();
  sync_gauges();
  return true;
}

std::filesystem::path ResultCache::resolve_dir(std::string_view explicit_dir) {
  if (!explicit_dir.empty()) return std::filesystem::path(explicit_dir);
  if (const auto env = stats::env_string("VDBENCH_CACHE_DIR"))
    return std::filesystem::path(*env);
  return std::filesystem::path(".vdbench-cache");
}

std::uint64_t ResultCache::resolve_max_bytes(std::uint64_t explicit_max) {
  if (explicit_max != 0) return explicit_max;
  if (const auto env =
          stats::env_uint64_at_least("VDBENCH_CACHE_MAX_BYTES", 1))
    return *env;
  return Config{}.max_bytes;
}

std::filesystem::path ResultCache::entry_path(std::uint64_t digest) const {
  return config_.dir / (to_hex64(digest) + std::string(kEntryExtension));
}

std::filesystem::path ResultCache::index_path() const {
  return config_.dir / kIndexName;
}

ResultCache::Entry* ResultCache::find_entry(std::uint64_t digest) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [digest](const Entry& e) { return e.digest == digest; });
  return it == entries_.end() ? nullptr : &*it;
}

void ResultCache::erase_entry(std::uint64_t digest, bool count_eviction) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [digest](const Entry& e) { return e.digest == digest; });
  if (it == entries_.end()) return;
  total_bytes_ -= it->bytes;
  entries_.erase(it);
  std::error_code ec;
  std::filesystem::remove(entry_path(digest), ec);
  if (count_eviction) {
    ++stats_.evictions;
    obs::count(obs::Counter::kCacheEvictions);
  }
}

void ResultCache::sync_gauges() const {
  obs::Registry& reg = obs::Registry::global();
  reg.set(obs::Gauge::kCacheEntries,
          static_cast<std::uint64_t>(entries_.size()));
  reg.set(obs::Gauge::kCacheBytes, total_bytes_);
}

void ResultCache::evict_to_cap() {
  // Least-recently-used first; ties broken by digest so eviction order is
  // deterministic even under logical timestamps that repeat.
  while (total_bytes_ > config_.max_bytes && entries_.size() > 1) {
    const auto victim = std::min_element(
        entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
          if (a.last_used != b.last_used) return a.last_used < b.last_used;
          return a.digest < b.digest;
        });
    erase_entry(victim->digest, true);
  }
}

void ResultCache::load_index() {
  entries_.clear();
  total_bytes_ = 0;
  if (const std::optional<std::string> raw = read_file(index_path())) {
    std::istringstream lines(*raw);
    std::string hex;
    std::uint64_t bytes = 0, last_used = 0;
    while (lines >> hex >> bytes >> last_used) {
      std::uint64_t digest = 0;
      if (!from_hex64(hex, digest)) continue;
      if (!std::filesystem::exists(entry_path(digest))) continue;
      if (find_entry(digest) != nullptr) continue;
      entries_.push_back({digest, bytes, last_used});
      total_bytes_ += bytes;
    }
  }
  // Adopt entry files the index does not know about (crash between the
  // entry rename and the index rename, or a foreign writer). They join at
  // recency 0, i.e. first in line for eviction.
  std::error_code ec;
  for (const auto& item :
       std::filesystem::directory_iterator(config_.dir, ec)) {
    if (!item.is_regular_file()) continue;
    const std::filesystem::path& path = item.path();
    if (path.extension() != kEntryExtension) continue;
    std::uint64_t digest = 0;
    if (!from_hex64(path.stem().string(), digest)) continue;
    if (find_entry(digest) != nullptr) continue;
    std::error_code size_ec;
    const std::uintmax_t file_size = std::filesystem::file_size(path, size_ec);
    if (size_ec) continue;
    entries_.push_back({digest, static_cast<std::uint64_t>(file_size), 0});
    total_bytes_ += static_cast<std::uint64_t>(file_size);
  }
}

void ResultCache::save_index() const {
  std::ostringstream out;
  for (const Entry& e : entries_)
    out << to_hex64(e.digest) << '\t' << e.bytes << '\t' << e.last_used
        << '\n';
  // Index loss is recoverable (entries are adopted on next load), so a
  // failed index write is deliberately not an error.
  (void)write_file_atomic(index_path(), std::move(out).str());
}

}  // namespace vdbench::cache
