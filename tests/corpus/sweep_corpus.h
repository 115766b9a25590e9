// The small but structurally complete corpus the damage sweeps run over:
// two ecosystems, vulnerable and clean sites, findings with and without
// confidence. Shared by corpus_sweep_test.cpp and error_oracle_test.cpp.
#pragma once

#include <string>

#include "corpus/manifest.h"
#include "corpus/synthetic.h"
#include "vdsim/tool.h"

namespace vdbench::corpus::sweep {

inline SyntheticCorpusSpec sweep_spec() {
  SyntheticCorpusSpec spec;
  spec.name = "sweep";
  spec.seed = 17;
  spec.ecosystems.push_back(
      {"alpha", 12, 0.5, {2, 1, 1, 1, 1, 1, 1, 1}});
  spec.ecosystems.push_back(
      {"beta", 12, 0.25, {0, 0, 1, 1, 2, 2, 1, 1}});
  return spec;
}

inline std::string sweep_manifest_doc() {
  return render_manifest(synthesize_manifest(sweep_spec()));
}

inline std::string sweep_sarif_doc() {
  const SyntheticCorpusSpec spec = sweep_spec();
  const Manifest manifest = synthesize_manifest(spec);
  return render_sarif_report(
      synthesize_report(spec, manifest, vdsim::builtin_tools().front()));
}

}  // namespace vdbench::corpus::sweep
