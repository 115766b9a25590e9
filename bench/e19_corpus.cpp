// E19 — real-report intake: SARIF findings joined to ground-truth corpora
// end-to-end, with per-ecosystem metric rankings.
//
// The DSN'15 study scored tools against benchmarks whose per-site truth it
// controlled; E19 reconstructs that discipline for *external* reports. Two
// deterministic synthetic corpora — each several ecosystems with its own
// prevalence and CWE mix — are rendered to actual SARIF 2.1.0 + manifest
// JSON, pushed back through the production readers (src/corpus), joined by
// the location matcher, and folded into confusion counts both directly and
// through the bounded streaming queue (the two matrices are asserted equal
// on every run — streamed intake must be a pure transport).
//
// The per-ecosystem metric tables then make the paper's headline concrete:
// the SAME tools, scored by the SAME metrics, rank differently across
// ecosystems whose prevalence differs — except under the
// prevalence-invariant metrics, whose cross-ecosystem Kendall distance
// stays near zero. With --sarif-report/--ground-truth the driver feeds a
// real report (CI uses the vdlint SARIF golden) through the identical
// path, appended as an extra section; the files' digests join the cache
// key, so the base experiment stays cacheable.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "corpus/intake.h"
#include "corpus/matcher.h"
#include "experiments.h"
#include "mcda/aggregate.h"
#include "report/json.h"
#include "report/table.h"
#include "stats/rank.h"
#include "study_common.h"
#include "vdsim/tool.h"

namespace vdbench::bench {

std::vector<corpus::SyntheticCorpusSpec> e19_corpus_specs() {
  // Class-mix shorthand: weights over the 8-class taxonomy in enum order
  // (sqli, xss, cmdi, path, bof, intof, uaf, crypto).
  corpus::SyntheticCorpusSpec web;
  web.name = "webapps";
  web.seed = kStudySeed + 19;
  web.ecosystems = {
      {"php-web", 4000, 0.15, {4, 3, 2, 2, 0, 0, 0, 1}},
      {"node-web", 4000, 0.06, {2, 5, 1, 2, 0, 0, 0, 2}},
  };
  corpus::SyntheticCorpusSpec systems;
  systems.name = "systems";
  systems.seed = kStudySeed + 23;
  systems.ecosystems = {
      {"embedded-c", 4000, 0.03, {0, 0, 1, 1, 5, 3, 2, 0}},
      {"kernel-mods", 4000, 0.01, {0, 0, 0, 0, 4, 3, 5, 0}},
  };
  return {web, systems};
}

namespace {

constexpr double kCostFn = 10.0;
constexpr double kCostFp = 1.0;
constexpr std::size_t kChunkSites = 512;

const std::vector<core::MetricId> kRankingMetrics = {
    core::MetricId::kRecall,        core::MetricId::kSpecificity,
    core::MetricId::kInformedness,  core::MetricId::kPrecision,
    core::MetricId::kFMeasure,      core::MetricId::kMcc,
    core::MetricId::kAccuracy,      core::MetricId::kMarkedness,
};

std::string e19_fingerprint() {
  std::string fp = "e19{costs=" + std::to_string(kCostFn) + ":" +
                   std::to_string(kCostFp) +
                   ";chunk=" + std::to_string(kChunkSites) + ";corpora=";
  for (const corpus::SyntheticCorpusSpec& spec : e19_corpus_specs()) {
    fp += spec.name + "(seed=" + std::to_string(spec.seed) + ";";
    for (const corpus::SyntheticEcosystemSpec& eco : spec.ecosystems) {
      fp += eco.name + ":" + std::to_string(eco.sites) + ":" +
            std::to_string(eco.prevalence) + ":";
      for (const double wgt : eco.class_mix) fp += std::to_string(wgt) + ",";
      fp += ";";
    }
    fp += ")";
  }
  fp += ";metrics=";
  for (const core::MetricId id : kRankingMetrics)
    fp += std::string(core::metric_info(id).key) + ",";
  return fp + "}";
}

// One tool's scored view of one ecosystem.
struct EcosystemScore {
  core::ConfusionMatrix cm;
  corpus::MatchStats stats;  ///< whole-corpus stats (same for every eco)
};

void run_e19(cli::ExperimentContext& ctx) {
  const std::vector<corpus::SyntheticCorpusSpec> specs = e19_corpus_specs();
  const std::vector<vdsim::ToolProfile> tools = vdsim::builtin_tools();

  report::JsonWriter json;
  json.begin_object();
  json.key("experiment").value("e19");
  json.key("corpora").begin_array();

  ctx.out << "E19: SARIF intake — " << tools.size() << " tools x "
          << specs.size()
          << " synthetic corpora rendered to SARIF 2.1.0 + ground-truth "
             "manifests,\nparsed back through src/corpus and scored "
             "end-to-end (cost model FN:FP = 10:1)\n";

  for (const corpus::SyntheticCorpusSpec& spec : specs) {
    // Everything flows through the rendered TEXT: manifest and reports are
    // serialized to JSON and re-parsed, so the production readers and the
    // matcher are on the scored path, not just the in-memory structs.
    const corpus::Manifest manifest = [&] {
      const auto scope = ctx.timer.scope(stage::kCorpusSynthesize);
      return corpus::parse_manifest(
          corpus::render_manifest(corpus::synthesize_manifest(spec)));
    }();

    const std::size_t ecosystems = manifest.ecosystems.size();
    // scores[tool][eco]
    std::vector<std::vector<EcosystemScore>> scores(
        tools.size(), std::vector<EcosystemScore>(ecosystems));
    std::uint64_t findings_total = 0;
    {
      const auto scope = ctx.timer.scope(stage::kCorpusIntake);
      for (std::size_t t = 0; t < tools.size(); ++t) {
        const corpus::SarifReport report = corpus::parse_sarif(
            corpus::render_sarif_report(
                corpus::synthesize_report(spec, manifest, tools[t])));
        findings_total += report.findings.size();
        const corpus::MatchResult match =
            corpus::match_findings(manifest, report);

        // Streamed intake must be a pure transport: same matrix as the
        // direct fold, chunking and queue bounds notwithstanding.
        const core::ConfusionMatrix direct =
            corpus::evaluate_direct(match.records);
        const core::ConfusionMatrix streamed =
            corpus::evaluate_streamed(match.records, kChunkSites);
        if (!(direct == streamed))
          throw std::runtime_error(
              "e19: streamed intake diverged from direct fold for " +
              tools[t].name + " on " + spec.name);

        for (std::size_t e = 0; e < ecosystems; ++e) {
          EcosystemScore& score = scores[t][e];
          score.stats = match.stats;
          for (const stream::SiteRecord& record : match.records)
            if (record.service == e) stream::accumulate(record, score.cm);
        }
      }
    }

    const auto scope = ctx.timer.scope(stage::kCorpusRankings);
    ctx.out << "\n--- corpus " << spec.name << ": " << manifest.site_count()
            << " sites across " << ecosystems << " ecosystems, "
            << findings_total << " findings parsed (direct == streamed on "
            << "every tool)\n";

    json.begin_object();
    json.key("name").value(spec.name);
    json.key("sites").value(
        static_cast<std::uint64_t>(manifest.site_count()));
    json.key("findings").value(findings_total);
    json.key("ecosystems").begin_array();

    // rankings[eco][metric] = best-first tool ordering.
    std::vector<std::vector<std::vector<std::size_t>>> rankings(ecosystems);
    for (std::size_t e = 0; e < ecosystems; ++e) {
      const corpus::Ecosystem& eco = manifest.ecosystems[e];
      report::Table table({"tool", "TP", "FP", "FN", "TN"});
      std::vector<std::vector<double>> utilities(
          kRankingMetrics.size(), std::vector<double>(tools.size()));
      json.begin_object();
      json.key("name").value(eco.name);
      json.key("prevalence")
          .value(scores[0][e].cm.total() == 0
                     ? 0.0
                     : scores[0][e].cm.prevalence());
      json.key("tools").begin_array();
      for (std::size_t t = 0; t < tools.size(); ++t) {
        const core::ConfusionMatrix& cm = scores[t][e].cm;
        table.add_row({tools[t].name, std::to_string(cm.tp),
                       std::to_string(cm.fp), std::to_string(cm.fn),
                       std::to_string(cm.tn)});
        core::EvalContext ec;
        ec.cm = cm;
        ec.cost_fn = kCostFn;
        ec.cost_fp = kCostFp;
        json.begin_object();
        json.key("tool").value(tools[t].name);
        for (std::size_t m = 0; m < kRankingMetrics.size(); ++m) {
          const double value = core::compute_metric(kRankingMetrics[m], ec);
          utilities[m][t] = core::metric_utility(kRankingMetrics[m], value);
          json.key(core::metric_info(kRankingMetrics[m]).key).value(value);
        }
        json.end_object();
      }
      json.end_array();
      json.end_object();
      ctx.out << "\necosystem " << eco.name << " (realized prevalence "
              << report::format_value(scores[0][e].cm.prevalence(), 4)
              << "):\n";
      table.print(ctx.out);

      rankings[e].reserve(kRankingMetrics.size());
      for (std::size_t m = 0; m < kRankingMetrics.size(); ++m)
        rankings[e].push_back(stats::order_descending(utilities[m]));
    }
    json.end_array();

    // The headline: cross-ecosystem rank agreement per metric. Invariant
    // metrics should move tools little as prevalence shifts; the coupled
    // ones are free to reorder the podium.
    report::Table agreement(
        {"metric", "invariant", "kendall distance", "rank flips"});
    json.key("cross_ecosystem").begin_array();
    for (std::size_t m = 0; m < kRankingMetrics.size(); ++m) {
      double worst = 0.0;
      for (std::size_t e = 1; e < ecosystems; ++e)
        worst = std::max(worst, mcda::kendall_distance(rankings[0][m],
                                                       rankings[e][m]));
      const core::MetricInfo& info = core::metric_info(kRankingMetrics[m]);
      const double pairs =
          static_cast<double>(tools.size() * (tools.size() - 1)) / 2.0;
      agreement.add_row({std::string(info.key),
                         info.prevalence_invariant ? "yes" : "no",
                         report::format_value(worst, 4),
                         report::format_value(worst * pairs, 1)});
      json.begin_object();
      json.key("metric").value(info.key);
      json.key("prevalence_invariant").value(info.prevalence_invariant);
      json.key("kendall_distance").value(worst);
      json.end_object();
    }
    json.end_array();
    ctx.out << "\ncross-ecosystem rank agreement (worst Kendall distance "
               "vs "
            << manifest.ecosystems[0].name << "):\n";
    agreement.print(ctx.out);

    // Consensus per ecosystem: Borda over the metric panel — the ordering
    // an MCDA user would read off this corpus.
    for (std::size_t e = 0; e < ecosystems; ++e) {
      const std::vector<double> borda = mcda::borda_scores(rankings[e]);
      const std::vector<std::size_t> consensus =
          stats::order_descending(borda);
      ctx.out << "consensus (Borda) in " << manifest.ecosystems[e].name
              << ":";
      for (const std::size_t t : consensus) ctx.out << " " << tools[t].name;
      ctx.out << "\n";
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();

  ctx.out << "\nreading: the same tools, scored by the same metrics, rank "
             "differently across ecosystems whose\nprevalence differs — "
             "the invariant metrics (recall, specificity, informedness) "
             "hold their orderings,\nthe prevalence-coupled ones "
             "(precision, F-measure, accuracy) reorder the podium. "
             "Cross-ecosystem\ncomparisons are only safe under the "
             "invariant column.\n";

  // External corpus (driver --sarif-report/--ground-truth): the identical
  // path over a real report. The section prints AFTER the artifact is
  // assembled — the base payload stays byte-identical with or without it,
  // and the files' digests are already folded into the cache key.
  ctx.add_artifact("e19_corpus.json", json.str());

  if (!ctx.corpus.sarif_report.empty()) {
    const auto ext_scope = ctx.timer.scope(stage::kCorpusExternal);
    const corpus::Manifest truth =
        corpus::read_manifest_file(ctx.corpus.ground_truth);
    const corpus::SarifReport report =
        corpus::read_sarif_file(ctx.corpus.sarif_report);
    const corpus::MatchResult match = corpus::match_findings(truth, report);
    const core::ConfusionMatrix direct =
        corpus::evaluate_direct(match.records);
    const core::ConfusionMatrix streamed =
        corpus::evaluate_streamed(match.records, kChunkSites);
    if (!(direct == streamed))
      throw std::runtime_error(
          "e19: streamed intake diverged from direct fold on external "
          "corpus");
    ctx.out << "\n--- external corpus " << truth.name << " (tool "
            << report.tool_name << " " << report.tool_version << ")\n"
            << "sites=" << match.stats.sites
            << " matched=" << match.stats.matched
            << " stray=" << match.stats.stray
            << " duplicates=" << match.stats.duplicates
            << " unknown-rule=" << match.stats.unknown_rule << "\n"
            << "counts: " << direct.to_string() << "\n";
    core::EvalContext ec;
    ec.cm = direct;
    ec.cost_fn = kCostFn;
    ec.cost_fp = kCostFp;
    report::Table table({"metric", "value"});
    for (const core::MetricId id : kRankingMetrics)
      table.add_row({std::string(core::metric_info(id).key),
                     report::format_value(core::compute_metric(id, ec), 4)});
    table.print(ctx.out);
  }
}

}  // namespace

void register_e19(cli::ExperimentRegistry& registry) {
  registry.add({"e19",
                "SARIF intake: multi-ecosystem corpora scored end-to-end",
                e19_fingerprint(), /*cacheable=*/true, run_e19,
                /*streaming=*/false, /*corpus=*/true});
}

}  // namespace vdbench::bench
