// The registered span and phase names: the single spelling of every trace
// span, driver StageTimer phase and experiment phase the harness emits.
//
// Span names appear in three places that must agree byte-for-byte: the
// --trace-out Chrome trace, the golden trace test's legal-name set, and the
// documentation. Each call site passes a constant below, never a raw
// literal. The golden test enumerates kAllSpans plus stage::kAllNames and
// stage::kAllPrefixes, and vdlint looks literals up in the same compiled
// tables: `vdl-span-name` rejects any obs::Span / obs::instant literal not
// in kAllSpans, and `vdl-stage-literal` rejects any respelling of a stage
// label outside this file. (The driver's obs::TimedSpan sites pass these
// constants too; the rule does not look at them.)
#pragma once

namespace vdbench::obs::names {

// Driver seams (cli/driver.cpp).
inline constexpr const char* kDriverExperiment = "driver.experiment";
inline constexpr const char* kDriverAttempt = "driver.attempt";
inline constexpr const char* kDriverManifest = "driver.manifest";
inline constexpr const char* kDriverExport = "driver.export";
inline constexpr const char* kDriverResume = "driver.resume";

// Parallel engine (stats/parallel.cpp).
inline constexpr const char* kExecutorTask = "executor.task";
inline constexpr const char* kExecutorCancel = "executor.cancel";

// Result cache (cache/result_cache.cpp).
inline constexpr const char* kCacheFetch = "cache.fetch";
inline constexpr const char* kCacheStore = "cache.store";
inline constexpr const char* kCacheCorrupt = "cache.corrupt";

// Fault injector (fault/injector.cpp).
inline constexpr const char* kFaultFire = "fault.fire";

// Study stages (core/study.cpp), around the computation, not the lookup.
inline constexpr const char* kStudyStage1 = "study.stage1";
inline constexpr const char* kStudyStage2 = "study.stage2";

// Streaming pipeline (stream/pipeline.cpp).
inline constexpr const char* kStreamProduce = "stream.produce";
inline constexpr const char* kStreamConsume = "stream.consume";

// Benchmark daemon (net/server.cpp).
inline constexpr const char* kNetSession = "net.session";
inline constexpr const char* kNetReject = "net.reject";
inline constexpr const char* kNetDrain = "net.drain";

// Real-corpus intake (corpus/sarif.cpp, corpus/manifest.cpp,
// corpus/matcher.cpp).
inline constexpr const char* kCorpusParseSarif = "corpus.parse_sarif";
inline constexpr const char* kCorpusParseManifest = "corpus.parse_manifest";
inline constexpr const char* kCorpusMatch = "corpus.match";

// Driver StageTimer phases (timer scopes double as spans).
inline constexpr const char* kPhaseCacheReplay = "cache replay";
inline constexpr const char* kPhaseCacheStore = "cache store";

/// Every registered span name, in declaration order.
inline constexpr const char* kAllSpans[] = {
    kDriverExperiment,    kDriverAttempt,  kDriverManifest, kDriverExport,
    kDriverResume,        kExecutorTask,   kExecutorCancel, kCacheFetch,
    kCacheStore,          kCacheCorrupt,   kFaultFire,      kStudyStage1,
    kStudyStage2,
    kStreamProduce,       kStreamConsume,  kNetSession,     kNetReject,
    kNetDrain,            kCorpusParseSarif,    kCorpusParseManifest,
    kCorpusMatch,         kPhaseCacheReplay,    kPhaseCacheStore};

/// Experiment StageTimer phase names (bench code spells them
/// `bench::stage::`). Every experiment records its phases under these
/// constants, so the driver's stage tables, the run manifest's
/// per-experiment stages and --trace-out span names agree on spelling. The
/// kAllPrefixes entries are completed with a parameter at the call site.
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

/// Every parameterised stage name; a phase label that starts with one is
/// legal.
inline constexpr const char* kAllPrefixes[] = {
    kStage2Prefix, kGridPrevalencePrefix, kPairAnalysisPrefix,
    kPowerGridPrefix};
}  // namespace stage

}  // namespace vdbench::obs::names
