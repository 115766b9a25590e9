#include "corpus/site_index.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

namespace vdbench::corpus::detail {

void SiteIndex::reserve(std::size_t sites) {
  if (sites >= UINT32_MAX)
    throw std::length_error("corpus site index: too many sites");
  sites_.reserve(sites);
  const std::size_t wanted =
      std::bit_ceil(std::max<std::size_t>(16, 2 * sites));
  if (wanted > slots_.size()) rehash(wanted);
}

bool SiteIndex::insert(const TruthSite& site) {
  if (2 * (sites_.size() + 1) > slots_.size()) reserve(2 * sites_.size() + 1);
  const std::size_t slot = probe(site.uri, site.line);
  sites_.push_back(&site);
  if (slots_[slot] != 0) return false;
  slots_[slot] = static_cast<std::uint32_t>(sites_.size());
  return true;
}

std::optional<std::size_t> SiteIndex::find(std::string_view uri,
                                           std::uint32_t line) const noexcept {
  const std::uint32_t entry = slots_[probe(uri, line)];
  if (entry == 0) return std::nullopt;
  return entry - 1;
}

std::size_t SiteIndex::probe(std::string_view uri,
                             std::uint32_t line) const noexcept {
  std::uint64_t h = std::hash<std::string_view>{}(uri) +
                    line * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(h) & mask;
  while (slots_[slot] != 0) {
    const TruthSite& site = *sites_[slots_[slot] - 1];
    if (site.line == line && site.uri == uri) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void SiteIndex::rehash(std::size_t slot_count) {
  slots_.assign(slot_count, 0);
  for (std::size_t ordinal = 0; ordinal < sites_.size(); ++ordinal) {
    std::uint32_t& entry =
        slots_[probe(sites_[ordinal]->uri, sites_[ordinal]->line)];
    if (entry == 0) entry = static_cast<std::uint32_t>(ordinal + 1);
  }
}

}  // namespace vdbench::corpus::detail
