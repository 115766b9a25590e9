#include "core/study.h"

#include <functional>
#include <stdexcept>

#include "obs/names.h"
#include "obs/trace.h"

namespace vdbench::core {

void StudyConfig::validate() const {
  assessment.validate();
  validation.validate();
  // Analyzer/selector configs validate in their constructors.
  (void)ScenarioAnalyzer(analyzer);
  (void)MetricSelector(selector);
  for (const Scenario& s : scenarios) s.validate();
}

Study::Study(StudyConfig config) : config_(std::move(config)) {
  config_.validate();
  scenarios_ = config_.scenarios.empty()
                   ? std::vector<Scenario>(builtin_scenarios().begin(),
                                           builtin_scenarios().end())
                   : config_.scenarios;
  if (scenarios_.empty())
    throw std::invalid_argument("Study: no scenarios");
}

const Scenario& Study::find_scenario(std::string_view key) const {
  for (const Scenario& s : scenarios_)
    if (s.key == key) return s;
  throw std::invalid_argument("Study: unknown scenario key: " +
                              std::string(key));
}

// Every lookup below computes into a temporary and stores it only once the
// computation returned, so a throw leaves the memo as it was.

const std::vector<MetricAssessment>& Study::assessments() {
  if (!assessments_) {
    const obs::Span span(obs::names::kStudyStage1);
    stats::Rng rng(config_.seed);
    assessments_ = PropertyAssessor(config_.assessment).assess_all(rng);
  }
  return *assessments_;
}

const std::vector<EffectivenessResult>& Study::effectiveness(
    std::string_view scenario_key) {
  const Scenario& scenario = find_scenario(scenario_key);
  auto it = effectiveness_.find(scenario_key);
  if (it == effectiveness_.end()) {
    const obs::Span span(obs::names::kStudyStage2, scenario.key);
    stats::Rng rng = stats::Rng(config_.seed)
                         .split(std::hash<std::string>{}(scenario.key));
    it = effectiveness_
             .emplace(scenario.key,
                      ScenarioAnalyzer(config_.analyzer)
                          .analyze(scenario, ranking_metrics(), rng))
             .first;
  }
  return it->second;
}

const ScenarioRecommendation& Study::recommendation(
    std::string_view scenario_key) {
  const Scenario& scenario = find_scenario(scenario_key);
  auto it = recommendations_.find(scenario_key);
  if (it == recommendations_.end()) {
    it = recommendations_
             .emplace(scenario.key,
                      MetricSelector(config_.selector)
                          .recommend(scenario, assessments(),
                                     effectiveness(scenario_key)))
             .first;
  }
  return it->second;
}

const ValidationOutcome& Study::validation(std::string_view scenario_key) {
  const Scenario& scenario = find_scenario(scenario_key);
  auto it = validations_.find(scenario_key);
  if (it == validations_.end()) {
    // Offset 8: the stream E8 has always validated on.
    stats::Rng rng = stats::Rng(config_.seed + 8)
                         .split(std::hash<std::string>{}(scenario.key));
    it = validations_
             .emplace(scenario.key,
                      McdaValidator(config_.validation)
                          .validate(scenario, assessments(),
                                    effectiveness(scenario_key), rng))
             .first;
  }
  return it->second;
}

}  // namespace vdbench::core
