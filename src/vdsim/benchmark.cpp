#include "vdsim/benchmark.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "stats/rank.h"

namespace vdbench::vdsim {

void BenchmarkDefinition::validate() const {
  if (name.empty())
    throw std::invalid_argument("BenchmarkDefinition: name required");
  if (core::metric_info(primary_metric).direction == core::Direction::kNone)
    throw std::invalid_argument(
        "BenchmarkDefinition: primary metric must induce an ordering");
  std::set<core::MetricId> seen = {primary_metric};
  for (const core::MetricId id : secondary_metrics)
    if (!seen.insert(id).second)
      throw std::invalid_argument("BenchmarkDefinition: duplicate metric");
  protocol.validate();
}

std::vector<std::string> compact_letter_groups(
    std::size_t count,
    const std::function<bool(std::size_t, std::size_t)>& significant) {
  std::vector<std::string> groups(count);
  if (count == 0) return groups;
  // reach[i]: furthest index j >= i whose item is not significantly
  // different from item i. Items are assumed sorted best-first, so
  // insignificance forms (approximately) contiguous bands.
  std::vector<std::size_t> reach(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t j = i;
    while (j + 1 < count && !significant(i, j + 1)) ++j;
    reach[i] = j;
  }
  // One letter per maximal band: a band starting at i is maximal when it
  // extends beyond every earlier band.
  char letter = 'a';
  std::size_t furthest_so_far = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const bool maximal = i == 0 || reach[i] > furthest_so_far;
    furthest_so_far = std::max(furthest_so_far, reach[i]);
    if (!maximal) continue;
    for (std::size_t j = i; j <= reach[i]; ++j) groups[j] += letter;
    if (letter < 'z') ++letter;
  }
  return groups;
}

BenchmarkReport execute_benchmark(const BenchmarkDefinition& definition,
                                  const std::vector<ToolProfile>& tools,
                                  stats::Rng& rng) {
  definition.validate();
  if (tools.empty())
    throw std::invalid_argument("execute_benchmark: no tools");

  std::vector<core::MetricId> metrics;
  metrics.reserve(1 + definition.secondary_metrics.size());
  metrics.push_back(definition.primary_metric);
  for (const core::MetricId id : definition.secondary_metrics)
    metrics.push_back(id);

  BenchmarkReport report;
  report.definition = definition;
  report.suite = run_suite(tools, metrics, definition.protocol, rng);

  // Rank by primary-metric utility (direction-aware).
  std::vector<double> utility(tools.size());
  for (std::size_t t = 0; t < tools.size(); ++t) {
    const MetricEstimate& est =
        report.suite.tools[t].metric(definition.primary_metric);
    const double mean =
        est.values.empty() ? std::numeric_limits<double>::quiet_NaN()
                           : est.ci.estimate;
    utility[t] = core::metric_utility(definition.primary_metric, mean);
  }
  const std::vector<std::size_t> order = stats::order_descending(utility);

  // Pairwise significance lookup on the primary metric.
  const auto significant = [&](std::size_t i, std::size_t j) {
    const std::string& a = report.suite.tools[order[i]].tool_name;
    const std::string& b = report.suite.tools[order[j]].tool_name;
    for (const PairwiseComparison& cmp : report.suite.comparisons) {
      if (cmp.metric != definition.primary_metric) continue;
      if ((cmp.tool_a == a && cmp.tool_b == b) ||
          (cmp.tool_a == b && cmp.tool_b == a))
        return cmp.significant();
    }
    return false;  // missing comparison (undefined runs): cannot separate
  };
  const std::vector<std::string> groups =
      compact_letter_groups(tools.size(), significant);

  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const ToolEstimates& est_tool = report.suite.tools[order[pos]];
    const MetricEstimate& est =
        est_tool.metric(definition.primary_metric);
    RankedTool ranked;
    ranked.name = est_tool.tool_name;
    ranked.rank = pos + 1;
    ranked.mean = est.values.empty()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : est.ci.estimate;
    ranked.ci_lower = est.ci.lower;
    ranked.ci_upper = est.ci.upper;
    ranked.group = groups[pos];
    report.ranking.push_back(std::move(ranked));
  }
  return report;
}

std::string BenchmarkReport::render() const {
  std::ostringstream os;
  const core::MetricInfo& primary =
      core::metric_info(definition.primary_metric);
  os << "benchmark: " << definition.name << "\n"
     << "primary metric: " << primary.name << " ("
     << core::direction_name(primary.direction) << " is better)\n"
     << "protocol: " << definition.protocol.runs << " runs x "
     << definition.protocol.workload.num_services
     << " services, cost FN:FP = " << definition.protocol.costs.cost_fn
     << ":" << definition.protocol.costs.cost_fp << "\n";
  std::size_t name_width = 4;
  for (const RankedTool& r : ranking)
    name_width = std::max(name_width, r.name.size());
  os << std::setprecision(3) << std::fixed;
  os << "rank  " << std::left << std::setw(static_cast<int>(name_width))
     << "tool" << std::right << "   mean   95% CI            group\n";
  for (const RankedTool& r : ranking) {
    os << std::setw(4) << r.rank << "  " << std::left
       << std::setw(static_cast<int>(name_width)) << r.name << std::right
       << "  " << std::setw(5) << r.mean << "  [" << r.ci_lower << ", "
       << r.ci_upper << "]  " << r.group << "\n";
  }
  os << "tools sharing a letter are statistically indistinguishable "
        "(alpha = 0.05)\n";
  return os.str();
}

}  // namespace vdbench::vdsim
