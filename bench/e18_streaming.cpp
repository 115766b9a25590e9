// E18 — metric stability vs workload size, streamed in constant memory.
//
// The paper's asymptotic arguments (prevalence-dependent metrics drift
// with the workload's base rate; invariant ones converge fast) are usually
// illustrated with closed-form expectations. E18 instead *measures* them:
// one simulated static analyzer streams over a growing synthetic workload
// — 10^4, 10^5 and 10^6 candidate sites — through the src/stream pipeline,
// which folds tool verdicts into confusion counts chunk by chunk without
// ever materialising the workload. Because the stream is prefix-stable
// (per-service RNG seeding, see stream/pipeline.h), the three sizes are
// checkpoints of ONE pass: the 10^4-site numbers are byte-identical to
// what a standalone 10^4-site run would produce.
//
// The checkpoint confusion matrices then go through core::compute_metric,
// giving every reported metric at every size from the same formulas the
// rest of the study uses. The printed table shows each metric's value per
// decade and its total drift; the e18_stream.json artifact carries the raw
// counts and values for regression tracking.
//
// E18 is the driver's first `streaming` experiment: `--record-log` writes
// its chunk stream to a checksummed report log, `--replay-log` re-evaluates
// a recorded log byte-identically (the CI replay-determinism matrix gates
// exactly that, across compilers and thread counts).
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "experiments.h"
#include "report/json.h"
#include "report/table.h"
#include "stream/pipeline.h"
#include "study_common.h"
#include "vdsim/tool.h"

namespace vdbench::bench {

stream::StreamSpec e18_stream_spec() {
  stream::StreamSpec spec;
  spec.total_sites = 1'000'000;
  spec.sites_per_service = 1000;
  spec.prevalence = 0.10;
  spec.difficulty_gamma = 1.0;
  spec.tool = vdsim::make_archetype_profile(vdsim::ToolArchetype::kStaticAnalyzer,
                                            0.6, "SA-stream");
  spec.seed = kStudySeed;
  spec.chunk_sites = 8192;
  spec.queue_chunks = 8;
  return spec;
}

std::vector<std::uint64_t> e18_checkpoints() {
  return {10'000, 100'000, 1'000'000};
}

namespace {

constexpr double kCostFn = 10.0;
constexpr double kCostFp = 1.0;

const std::vector<core::MetricId> kMetrics = {
    core::MetricId::kRecall,
    core::MetricId::kPrecision,
    core::MetricId::kFMeasure,
    core::MetricId::kAccuracy,
    core::MetricId::kSpecificity,
    core::MetricId::kMcc,
    core::MetricId::kInformedness,
    core::MetricId::kKappa,
    core::MetricId::kNormalizedExpectedCost,
};

std::string e18_fingerprint() {
  const stream::StreamSpec spec = e18_stream_spec();
  std::string checkpoints;
  for (const std::uint64_t c : e18_checkpoints())
    checkpoints += std::to_string(c) + ",";
  return "e18{sites=" + std::to_string(spec.total_sites) +
         ";per_service=" + std::to_string(spec.sites_per_service) +
         ";prev=" + std::to_string(spec.prevalence) +
         ";gamma=" + std::to_string(spec.difficulty_gamma) +
         ";tool=static:0.60;chunk=" + std::to_string(spec.chunk_sites) +
         ";costs=" + std::to_string(kCostFn) + ":" + std::to_string(kCostFp) +
         ";checkpoints=" + checkpoints + "}";
}

void run_e18(cli::ExperimentContext& ctx) {
  const stream::StreamSpec spec = e18_stream_spec();
  const std::vector<std::uint64_t> checkpoints = e18_checkpoints();

  stream::StreamResult result;
  {
    const auto scope = ctx.timer.scope(stage::kStreamEvaluate);
    stream::StreamIo io;
    std::optional<stream::ReportLogWriter> writer;
    std::optional<stream::ReportLogReader> reader;
    if (!ctx.stream.replay_log.empty()) {
      reader.emplace(ctx.stream.replay_log);
      io.replay = &*reader;
    } else if (!ctx.stream.record_log.empty()) {
      writer.emplace(ctx.stream.record_log);
      io.record = &*writer;
    }
    result = stream::stream_evaluate(spec, checkpoints, io);
    if (writer) writer->close();
  }

  ctx.out << "E18: one streamed pass over "
          << result.sites << " candidate sites in " << result.chunks
          << " chunks of " << spec.chunk_sites
          << " (queue bound: " << spec.queue_chunks
          << " chunks — constant memory at any workload size)\n";
  ctx.out << "final counts: " << result.cm.to_string()
          << "  realized prevalence="
          << report::format_value(result.cm.prevalence(), 4) << "\n\n";

  const auto scope = ctx.timer.scope(stage::kStreamMetrics);
  const std::size_t n = result.checkpoints.size();
  std::vector<core::EvalContext> contexts(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts[i].cm = result.checkpoints[i].cm;
    contexts[i].cost_fn = kCostFn;
    contexts[i].cost_fp = kCostFp;
  }
  std::vector<double> values(n);

  std::vector<std::string> header = {"metric"};
  for (const stream::StreamCheckpoint& cp : result.checkpoints)
    header.push_back(std::to_string(cp.sites) + " sites");
  header.push_back("drift");
  report::Table table(header);

  report::JsonWriter json;
  json.begin_object();
  json.key("experiment").value("e18");
  json.key("total_sites").value(result.sites);
  json.key("chunks").value(result.chunks);
  json.key("checkpoints").begin_array();
  for (const stream::StreamCheckpoint& cp : result.checkpoints) {
    json.begin_object();
    json.key("sites").value(cp.sites);
    json.key("tp").value(cp.cm.tp);
    json.key("fp").value(cp.cm.fp);
    json.key("tn").value(cp.cm.tn);
    json.key("fn").value(cp.cm.fn);
    json.end_object();
  }
  json.end_array();
  json.key("metrics").begin_array();
  for (const core::MetricId id : kMetrics) {
    for (std::size_t i = 0; i < n; ++i)
      values[i] = core::compute_metric(id, contexts[i]);
    const core::MetricInfo& info = core::metric_info(id);
    std::vector<std::string> row = {std::string(info.key)};
    for (const double v : values) row.push_back(report::format_value(v, 4));
    const double drift = values[n - 1] - values[0];
    row.push_back(report::format_value(drift, 4));
    table.add_row(row);
    json.begin_object();
    json.key("metric").value(info.key);
    json.key("values").begin_array();
    for (const double v : values) json.value(v);
    json.end_array();
    json.key("drift").value(drift);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  ctx.out << "metric values per workload-size checkpoint (drift = value at "
          << result.checkpoints.back().sites << " - value at "
          << result.checkpoints.front().sites << "):\n";
  table.print(ctx.out);
  ctx.out << "\nreading: prevalence-invariant metrics (recall, specificity,"
             " informedness) settle within sampling noise by 10^5 sites;\n"
             "the cost- and TN-coupled ones move only through the shrinking"
             " standard error — the workload's base rate is held fixed,\n"
             "so any residual drift here is sampling variance, not the"
             " prevalence artifact E3 isolates.\n";

  ctx.add_artifact("e18_stream.json", json.str());
}

}  // namespace

void register_e18(cli::ExperimentRegistry& registry) {
  registry.add({"e18",
                "metric stability vs workload size (streamed, constant memory)",
                e18_fingerprint(), /*cacheable=*/true, run_e18,
                /*streaming=*/true});
}

}  // namespace vdbench::bench
