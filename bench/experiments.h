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
#include "stream/pipeline.h"
#include "vdsim/workload.h"

namespace vdbench::bench {

/// Canonical StageTimer phase names. Every experiment records its phases
/// under these constants (never ad-hoc literals), so the driver's stage
/// tables, the run manifest's per-experiment stages and --trace-out span
/// names all agree on spelling. Names ending in `Prefix` are completed with
/// a parameter at the call site. kAllNames and kAllPrefixes list them all,
/// so the golden trace test enumerates the legal span-name set from one
/// place.
namespace stage {
inline constexpr const char* kCatalogue = "catalogue";              // e1
inline constexpr const char* kStage1Assessment = "stage 1 assessment";
inline constexpr const char* kStage2Prefix = "stage 2: ";           // + key
inline constexpr const char* kStage2Validation = "stage 2 + validation";
inline constexpr const char* kPrevalenceSweep = "prevalence sweep";  // e3
inline constexpr const char* kGridPrevalencePrefix = "grid prevalence=";
inline constexpr const char* kGenerateWorkload = "generate workload";
inline constexpr const char* kGenerateWorkloads = "generate workloads";
inline constexpr const char* kBenchmarkTools = "benchmark tools";    // e5
inline constexpr const char* kBenchmarkAggregate = "benchmark + aggregate";
inline constexpr const char* kAgreementMatrix = "agreement matrix";  // e6
inline constexpr const char* kNoiseSweep = "noise sweep";            // e9
inline constexpr const char* kMethodAblation = "method ablation";    // e9
inline constexpr const char* kRocSweep = "ROC sweep";                // e11
inline constexpr const char* kSuiteCampaign = "suite campaign";      // e13
inline constexpr const char* kWeightSensitivity = "weight sensitivity";
inline constexpr const char* kPresetSummary = "preset summary";      // e14
inline constexpr const char* kPerClassDetail = "per-class detail";   // e14
inline constexpr const char* kPairAnalysisPrefix = "pair analysis gamma=";
inline constexpr const char* kPowerGridPrefix = "power grid R=";     // e16
inline constexpr const char* kRender = "render";                     // e16
inline constexpr const char* kBaseCorpusCohort = "base corpus cohort";
inline constexpr const char* kLowPrevalenceCohort = "low-prevalence cohort";
inline constexpr const char* kChecksum = "checksum";                 // probe
inline constexpr const char* kStreamEvaluate = "stream evaluate";    // e18
inline constexpr const char* kStreamMetrics = "checkpoint metrics";  // e18
inline constexpr const char* kCorpusSynthesize = "synthesize corpora";  // e19
inline constexpr const char* kCorpusIntake = "corpus intake";        // e19
inline constexpr const char* kCorpusRankings = "corpus rankings";    // e19
inline constexpr const char* kCorpusExternal = "external corpus";    // e19

/// Every exact stage name above, in declaration order.
inline constexpr const char* kAllNames[] = {
    kCatalogue,           kStage1Assessment,   kStage2Validation,
    kPrevalenceSweep,     kGenerateWorkload,   kGenerateWorkloads,
    kBenchmarkTools,      kBenchmarkAggregate, kAgreementMatrix,
    kNoiseSweep,          kMethodAblation,     kRocSweep,
    kSuiteCampaign,       kWeightSensitivity,  kPresetSummary,
    kPerClassDetail,      kRender,             kBaseCorpusCohort,
    kLowPrevalenceCohort, kChecksum,           kStreamEvaluate,
    kStreamMetrics,       kCorpusSynthesize,   kCorpusIntake,
    kCorpusRankings,      kCorpusExternal};

/// Every `…Prefix` name above; a phase label that starts with one is legal.
inline constexpr const char* kAllPrefixes[] = {
    kStage2Prefix, kGridPrevalencePrefix, kPairAnalysisPrefix,
    kPowerGridPrefix};
}  // namespace stage

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
