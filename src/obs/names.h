// The registered span-name set — the single spelling for every trace span
// and driver-level StageTimer phase the harness emits.
//
// Span names appear in three places that must agree byte-for-byte: the
// --trace-out Chrome trace, the golden trace test's legal-name set, and the
// documentation. Before this header each site spelled its name as a raw
// literal and the golden test carried a parallel copy; now the constants
// below are the registry, the golden test enumerates kAllSpans, and the
// vdlint `vdl-span-name` rule parses this file's string table to reject
// any obs::Span / obs::instant call site whose literal is not registered
// here. (The driver's obs::TimedSpan sites pass these constants too; the
// rule does not look at them.)
//
// Bench experiment phases live in bench/experiments.h `stage::` (the
// driver cannot see bench headers); the two kPhase* constants below are
// the driver's own StageTimer phases, which the golden test merges with
// the stage:: set.
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

/// Every registered span name, in declaration order. The golden trace test
/// builds its legal-name set from this table (plus bench/experiments.h
/// stage:: constants for experiment phases).
inline constexpr const char* kAllSpans[] = {
    kDriverExperiment,    kDriverAttempt,  kDriverManifest, kDriverExport,
    kDriverResume,        kExecutorTask,   kExecutorCancel, kCacheFetch,
    kCacheStore,          kCacheCorrupt,   kFaultFire,      kStudyStage1,
    kStudyStage2,
    kStreamProduce,       kStreamConsume,  kNetSession,     kNetReject,
    kNetDrain,            kCorpusParseSarif,    kCorpusParseManifest,
    kCorpusMatch,         kPhaseCacheReplay,    kPhaseCacheStore};

}  // namespace vdbench::obs::names
