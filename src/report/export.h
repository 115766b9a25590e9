// JSON export of study and campaign artifacts.
//
// Each exporter produces one self-contained JSON document so experiment
// outputs can be archived and diffed across library versions (the
// experiments are themselves regression-tested artifacts).
#pragma once

#include <string>

#include "core/study.h"
#include "vdsim/suite.h"

namespace vdbench::report {

/// Full three-stage study: assessments, per-scenario effectiveness,
/// recommendations and validation outcomes. Computes every stage the study
/// has not computed yet.
[[nodiscard]] std::string study_to_json(core::Study& study);

/// Repeated-benchmark campaign: per-tool estimates with CIs and pairwise
/// comparisons.
[[nodiscard]] std::string suite_to_json(const vdsim::SuiteResult& suite);

}  // namespace vdbench::report
