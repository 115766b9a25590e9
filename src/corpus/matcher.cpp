#include "corpus/matcher.h"

#include <cstddef>
#include <optional>
#include <vector>

#include "corpus/site_index.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vdbench::corpus {

namespace {

// Winning finding on a site, if any, under policy clause 4.
struct Claim {
  double confidence = -1.0;
  std::size_t finding = kNoClaim;  ///< document index of the current winner

  static constexpr std::size_t kNoClaim = static_cast<std::size_t>(-1);
};

}  // namespace

MatchResult match_findings(const Manifest& manifest,
                           const SarifReport& report) {
  const obs::Span span(obs::names::kCorpusMatch);

  // Flat index over the manifest's enumerated sites (clause 2). Duplicate
  // sites were rejected at parse time; in a manifest built in memory the
  // first of two equal sites is the one findings match.
  const std::size_t sites = manifest.site_count();
  detail::SiteIndex site_index(sites);
  for (const Ecosystem& eco : manifest.ecosystems)
    for (const TruthSite& site : eco.sites) site_index.insert(site);

  MatchResult result;
  result.stats.sites = sites;

  // One pass over the findings: keep the winner per claimed site.
  std::vector<Claim> claims(sites);
  for (std::size_t f = 0; f < report.findings.size(); ++f) {
    const SarifFinding& finding = report.findings[f];
    const std::optional<std::size_t> site =
        site_index.find(finding.uri, finding.line);
    if (!site) {
      ++result.stats.stray;
      continue;
    }
    Claim& claim = claims[*site];
    if (claim.finding != Claim::kNoClaim) {
      ++result.stats.duplicates;
      // Strictly-greater keeps the earliest on ties (clause 4); absent
      // confidence is -1.0 and so ranks below any declared value.
      if (finding.confidence > claim.confidence) {
        claim.confidence = finding.confidence;
        claim.finding = f;
      }
      continue;
    }
    claim.confidence = finding.confidence;
    claim.finding = f;
  }

  // Emit one record per site, manifest order (clause 2).
  result.records.reserve(sites);
  std::size_t index = 0;
  for (std::size_t e = 0; e < manifest.ecosystems.size(); ++e) {
    const Ecosystem& eco = manifest.ecosystems[e];
    for (std::size_t s = 0; s < eco.sites.size(); ++s, ++index) {
      const TruthSite& site = eco.sites[s];
      stream::SiteRecord record;
      record.service = static_cast<std::uint32_t>(e);
      record.site = static_cast<std::uint32_t>(s);
      record.truth =
          site.vulnerable
              ? static_cast<std::uint8_t>(
                    vdsim::vuln_class_index(site.vuln_class))
              : stream::kCleanSite;
      if (const Claim& claim = claims[index];
          claim.finding != Claim::kNoClaim) {
        ++result.stats.matched;
        const SarifFinding& winner = report.findings[claim.finding];
        std::uint8_t claimed = kUnknownClass;
        const auto rule = manifest.rules.find(winner.rule_id);
        if (rule != manifest.rules.end()) {
          if (const std::optional<vdsim::VulnClass> cls =
                  vuln_class_from_cwe(rule->second))
            claimed =
                static_cast<std::uint8_t>(vdsim::vuln_class_index(*cls));
        }
        if (claimed == kUnknownClass) ++result.stats.unknown_rule;
        record.claimed = claimed;
      }
      result.records.push_back(record);
    }
  }

  obs::count(obs::Counter::kCorpusStrayFindings, result.stats.stray);
  return result;
}

}  // namespace vdbench::corpus
