// Location index over ground-truth sites: (uri, line) → the site's flat
// ordinal across all ecosystems, in the order the sites were added. The
// manifest reader checks duplicates with it and the matcher joins findings
// through it. It keeps pointers to the indexed TruthSites, not copies of
// their uris, so those sites must stay in place while it is in use.
// Internal to src/corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "corpus/manifest.h"

namespace vdbench::corpus::detail {

class SiteIndex {
 public:
  /// Room for `sites` sites before the table grows.
  explicit SiteIndex(std::size_t sites = 0) { reserve(sites); }

  /// Make room for `sites` sites in total.
  void reserve(std::size_t sites);

  /// Add `site` under the next ordinal. Returns false when a site with the
  /// same (uri, line) is already indexed; find() keeps answering with that
  /// earlier site.
  bool insert(const TruthSite& site);

  /// Ordinal of the site at (uri, line); nullopt when there is none.
  [[nodiscard]] std::optional<std::size_t> find(
      std::string_view uri, std::uint32_t line) const noexcept;

 private:
  // The slot holding (uri, line), or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::string_view uri,
                                  std::uint32_t line) const noexcept;
  void rehash(std::size_t slot_count);

  std::vector<const TruthSite*> sites_;  // by ordinal
  // Open addressing with linear probing, at most half full: each slot
  // holds an ordinal + 1, or 0 when empty.
  std::vector<std::uint32_t> slots_;
};

}  // namespace vdbench::corpus::detail
