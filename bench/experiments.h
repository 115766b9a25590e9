// Registration hooks for the study experiments.
//
// Each eN translation unit keeps its experiment self-contained (config,
// title, run function) and exposes exactly one registration hook; the
// `vdbench` driver — and any test that wants a real experiment — builds a
// registry via study_registry(). Registration is explicit rather than
// static-initializer magic so the order is deterministic and nothing
// depends on which object files the linker decided to keep.
#pragma once

#include <cstdint>
#include <vector>

#include "cli/experiment.h"
#include "corpus/synthetic.h"
#include "obs/names.h"
#include "stream/pipeline.h"
#include "vdsim/workload.h"

namespace vdbench::bench {

/// Experiment phase names. The constants live in obs/names.h beside the
/// span names, so one header holds every span and phase name.
namespace stage = obs::names::stage;

void register_e1(cli::ExperimentRegistry& registry);
void register_e2(cli::ExperimentRegistry& registry);
void register_e3(cli::ExperimentRegistry& registry);
void register_e4(cli::ExperimentRegistry& registry);
void register_e5(cli::ExperimentRegistry& registry);
void register_e6(cli::ExperimentRegistry& registry);
void register_e7(cli::ExperimentRegistry& registry);
void register_e8(cli::ExperimentRegistry& registry);
void register_e9(cli::ExperimentRegistry& registry);
void register_e11(cli::ExperimentRegistry& registry);
void register_e12(cli::ExperimentRegistry& registry);
void register_e13(cli::ExperimentRegistry& registry);
void register_e14(cli::ExperimentRegistry& registry);
void register_e15(cli::ExperimentRegistry& registry);
void register_e16(cli::ExperimentRegistry& registry);
void register_e17(cli::ExperimentRegistry& registry);
void register_e18(cli::ExperimentRegistry& registry);
void register_e19(cli::ExperimentRegistry& registry);

/// "probe": a deliberately cheap 256-task parallel checksum used by the CI
/// fault matrix and resilience tests as a drill target for `executor.task`
/// faults and cancellation. Non-cacheable, so it never joins the
/// "all" selection and leaves the study outputs untouched.
void register_probe(cli::ExperimentRegistry& registry);

/// The base corpus E17 benchmarks the real analyzer on; exported so tests
/// can regenerate the identical workload and assert the blind-spot
/// contract against it.
[[nodiscard]] vdsim::WorkloadSpec e17_corpus_spec();

/// The stream E18 evaluates (full-size, 10^6 sites); exported so tests run
/// the identical configuration.
[[nodiscard]] stream::StreamSpec e18_stream_spec();

/// E18's workload-size checkpoints (one per decade).
[[nodiscard]] std::vector<std::uint64_t> e18_checkpoints();

/// The synthetic multi-ecosystem corpora E19 scores (distinct prevalence
/// and CWE mixes per ecosystem); exported so tests regenerate the exact
/// manifests/reports and assert intake invariants against them.
[[nodiscard]] std::vector<corpus::SyntheticCorpusSpec> e19_corpus_specs();

/// The full study registry, E1–E19 in order (E10 is retired; the other
/// ids keep their numbers because cache keys name them).
[[nodiscard]] cli::ExperimentRegistry study_registry();

}  // namespace vdbench::bench
