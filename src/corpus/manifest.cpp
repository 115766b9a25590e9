#include "corpus/manifest.h"

#include <optional>
#include <string>
#include <string_view>

#include "corpus/json_check.h"
#include "corpus/site_index.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vdbench::corpus {

namespace {

constexpr std::string_view kKind = "ground-truth manifest";

}  // namespace

std::optional<vdsim::VulnClass> vuln_class_from_cwe(std::string_view cwe) {
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
    if (vdsim::vuln_class_cwe(c) == cwe) return c;
  return std::nullopt;
}

Manifest parse_manifest(std::string_view text) {
  const obs::Span span(obs::names::kCorpusParseManifest);
  const report::JsonDocument document = detail::parse_document(text, kKind);
  const report::JsonValue& doc = document.root();
  const detail::Path root;

  const double schema = detail::require_number(
      detail::require_member(doc, "schema", kKind, root), kKind,
      root.key("schema"));
  if (schema != static_cast<double>(kManifestSchemaVersion))
    detail::fail_invalid(
        kKind, "schema version " + std::to_string(schema) +
                   " not supported (reader speaks " +
                   std::to_string(kManifestSchemaVersion) + ")");

  Manifest manifest;
  manifest.name = detail::require_string(
      detail::require_member(doc, "name", kKind, root), kKind,
      root.key("name"));

  if (const report::JsonValue* rules = doc.member("rules")) {
    const report::OptionalView<report::JsonObject> members =
        rules->as_object();
    if (!members) detail::fail_invalid(kKind, "rules must be an object");
    const detail::Path rules_path = root.key("rules");
    for (const auto& [rule_id, cwe] : *members)
      manifest.rules.emplace(
          rule_id,
          detail::require_string(cwe, kKind, rules_path.key(rule_id)));
  }

  const detail::Path ecosystems_path = root.key("ecosystems");
  const report::JsonArray ecosystems = detail::require_array(
      detail::require_member(doc, "ecosystems", kKind, root), kKind,
      ecosystems_path);
  if (ecosystems.empty())
    detail::fail_invalid(kKind, "ecosystems must not be empty");

  // Each ecosystem's sites are reserved up front, so the TruthSites stay
  // where they are and the index can point at them instead of copying
  // every uri.
  manifest.ecosystems.reserve(ecosystems.size());
  detail::SiteIndex seen;
  for (std::size_t e = 0; e < ecosystems.size(); ++e) {
    const detail::Path eco_path = ecosystems_path.index(e);
    if (!ecosystems[e].is_object())
      detail::fail_invalid(kKind, eco_path.str() + " must be an object");
    Ecosystem& eco = manifest.ecosystems.emplace_back();
    eco.name = detail::require_string(
        detail::require_member(ecosystems[e], "name", kKind, eco_path), kKind,
        eco_path.key("name"));
    const detail::Path sites_path = eco_path.key("sites");
    const report::JsonArray sites = detail::require_array(
        detail::require_member(ecosystems[e], "sites", kKind, eco_path),
        kKind, sites_path);
    if (sites.empty())
      detail::fail_invalid(kKind, sites_path.str() + " must not be empty");
    eco.sites.reserve(sites.size());
    seen.reserve(manifest.site_count() + sites.size());
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const detail::Path site_path = sites_path.index(s);
      if (!sites[s].is_object())
        detail::fail_invalid(kKind, site_path.str() + " must be an object");
      TruthSite& site = eco.sites.emplace_back();
      site.uri = detail::require_string(
          detail::require_member(sites[s], "uri", kKind, site_path), kKind,
          site_path.key("uri"));
      site.line = detail::require_line(
          detail::require_member(sites[s], "line", kKind, site_path), kKind,
          site_path.key("line"));
      const std::optional<bool> vulnerable =
          detail::require_member(sites[s], "vulnerable", kKind, site_path)
              .as_bool();
      if (!vulnerable)
        detail::fail_invalid(kKind,
                             site_path.str() + ".vulnerable must be a bool");
      site.vulnerable = *vulnerable;
      if (site.vulnerable) {
        const std::string_view cwe = detail::require_string(
            detail::require_member(sites[s], "cwe", kKind, site_path), kKind,
            site_path.key("cwe"));
        const std::optional<vdsim::VulnClass> cls = vuln_class_from_cwe(cwe);
        if (!cls)
          detail::fail_invalid(kKind, site_path.str() + ".cwe '" +
                                          std::string(cwe) +
                                          "' is outside the taxonomy");
        site.vuln_class = *cls;
      }
      if (const report::JsonValue* difficulty = sites[s].member("difficulty")) {
        site.difficulty = detail::require_number(
            *difficulty, kKind, site_path.key("difficulty"));
        if (site.difficulty < 0.0 || site.difficulty > 1.0)
          detail::fail_invalid(
              kKind, site_path.str() + ".difficulty must be in [0, 1]");
      }
      if (!seen.insert(site))
        detail::fail_invalid(
            kKind, "duplicate site (" + site.uri + ", line " +
                       std::to_string(site.line) + ") at " + site_path.str() +
                       " — two truths for one location cannot be scored");
    }
  }
  obs::count(obs::Counter::kCorpusSites, manifest.site_count());
  return manifest;
}

}  // namespace vdbench::corpus
