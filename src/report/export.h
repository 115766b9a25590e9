// JSON export of repeated-benchmark campaigns.
//
// The exporter produces one self-contained JSON document so experiment
// outputs can be archived and diffed across library versions (the
// experiments are themselves regression-tested artifacts).
#pragma once

#include <string>

#include "vdsim/suite.h"

namespace vdbench::report {

/// Repeated-benchmark campaign: per-tool estimates with CIs and pairwise
/// comparisons.
[[nodiscard]] std::string suite_to_json(const vdsim::SuiteResult& suite);

}  // namespace vdbench::report
