// Deterministic fault injection for the vdbench harness.
//
// Every recovery path in the study runner (cache corruption → recompute,
// experiment retry, watchdog cancellation, manifest rewrite) must itself be
// testable, so the harness compiles injection hooks into its I/O and
// execution seams permanently. Each hook names a point:
//
//   cache.read        ResultCache::fetch     (key = experiment id)
//   cache.write       ResultCache::store     (key = experiment id)
//   experiment.body   driver attempt loop    (key = experiment id)
//   executor.task     ParallelExecutor tasks (key = decimal task index)
//   manifest.write    driver manifest writes (no key)
//   stream.produce    streaming-pipeline producer (key = decimal chunk index)
//   stream.consume    streaming-pipeline consumer (key = decimal chunk index)
//   net.accept        vdbenchd accept loop   (no key)
//   net.read          wire-frame reads       (key = peer role, "server"/"client")
//   net.write         wire-frame writes      (key = peer role, "server"/"client")
//   net.frame         wire-frame validation  (key = peer role; corrupt/truncate
//                     mangle the received bytes so the checksum rejects them)
//   corpus.read       corpus file reads      (key = file kind, "sarif"/
//                     "manifest"; corrupt/truncate mangle the bytes so the
//                     reader rejects them with a typed CorpusError)
//
// A schedule is armed from a spec string (the `VDBENCH_FAULTS` environment
// variable for the vdbench binary; `Injector::arm` in tests):
//
//   point=action[@[key:]N[xR]] [; more clauses]
//
//   cache.write=io_error@3            fail the 3rd store, any experiment
//   experiment.body=throw@e13:1       throw on e13's 1st attempt
//   executor.task=timeout@17:1        stall task index 17 until cancelled
//   cache.read=corrupt                bit-flip every read
//   cache.write=io_error@2x3          fail stores 2, 3 and 4
//
// Triggers are count-based per rule: the rule's hit counter increments on
// every matching hit, and the rule fires when the ordinal lands in
// [N, N+R). With a key filter the counter only counts matching keys, which
// keeps schedules reproducible bit-for-bit even for points hit from worker
// threads in nondeterministic order. Omitting `@...` fires on every hit.
//
// Hooks are zero-cost when disarmed: call sites check a single relaxed
// atomic before doing any work. The injector only *decides*; each call
// site interprets the action (an io_error in the cache returns a failed
// write, in the driver it is an exception), so this library depends on
// nothing but the standard library and can sit under every other target.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.h"

namespace vdbench::fault {

/// Every registered injection-point name, in canonical order. This table is
/// the single spelling authority: arm() validates specs against it, and the
/// vdlint `vdl-fault-point` rule parses it out of this header to reject any
/// hit("...") call site naming an unregistered point.
inline constexpr const char* kKnownPoints[] = {
    "cache.read",     "cache.write",    "experiment.body", "executor.task",
    "manifest.write", "stream.produce", "stream.consume",  "net.accept",
    "net.read",       "net.write",      "net.frame",       "corpus.read"};

/// What a firing rule asks the call site to simulate.
enum class Action {
  kNone,      ///< no fault: proceed normally
  kIoError,   ///< fail the operation as the OS would (ENOSPC, EIO)
  kThrow,     ///< raise an InjectedFault exception
  kTimeout,   ///< stall cooperatively until cancelled
  kCorrupt,   ///< flip one bit of the bytes in flight
  kTruncate,  ///< drop the tail half of the bytes in flight
};

/// Spec token for an action, e.g. "io_error".
[[nodiscard]] std::string_view action_name(Action action) noexcept;

/// The exception raised for Action::kThrow (and by expired stalls). Derives
/// from std::runtime_error so generic handlers still degrade gracefully;
/// the distinct type lets the supervisor classify it as "injected_fault".
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// One armed clause of a fault spec.
struct FaultRule {
  std::string point;          ///< injection point name
  Action action = Action::kNone;
  std::string key;            ///< empty = match any key
  std::uint64_t trigger = 0;  ///< 1-based firing ordinal; 0 = every hit
  std::uint64_t repeat = 1;   ///< consecutive firings starting at trigger
  std::uint64_t hits = 0;     ///< matching hits observed so far
  std::uint64_t fired = 0;    ///< times this rule returned its action
};

class Injector {
 public:
  Injector() = default;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Parse `spec` and arm the schedule (replacing any previous one); the
  /// empty spec disarms. Throws std::invalid_argument on a malformed
  /// clause, an unknown point or an unknown action.
  void arm(std::string_view spec);

  /// Arm from the VDBENCH_FAULTS environment variable. Returns false when
  /// the variable is unset or empty (injector left untouched). Throws like
  /// arm() on a malformed spec — callers should surface that as a usage
  /// error rather than run with a half-understood schedule.
  bool arm_from_env();

  void disarm() noexcept;

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Record one hit of `point` with `key` and return the action to
  /// simulate (kNone when disarmed or when no rule fires). Every matching
  /// rule's counter advances on every hit; the first rule that fires wins.
  /// Thread-safe.
  Action hit(std::string_view point, std::string_view key = {});

  /// Total firings across all rules since arming; also the deterministic
  /// salt call sites pass to flip_one_bit so repeated corruption firings
  /// mutate different bytes.
  [[nodiscard]] std::uint64_t total_fired() const noexcept;

  /// Parse without arming; the validation backend of arm().
  [[nodiscard]] static std::vector<FaultRule> parse(std::string_view spec);

  /// The process-wide injector every built-in hook consults. Starts
  /// disarmed; the vdbench binary arms it from VDBENCH_FAULTS, tests arm
  /// it programmatically.
  [[nodiscard]] static Injector& global();

 private:
  std::atomic<bool> armed_{false};
  mutable core::Mutex mutex_;
  std::vector<FaultRule> rules_ VDBENCH_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> total_fired_{0};
};

/// Deterministically flip one bit of `bytes` (no-op when empty). The byte
/// index derives from `salt`, so a schedule's n-th corruption always lands
/// on the same byte for the same content size.
void flip_one_bit(std::string& bytes, std::uint64_t salt) noexcept;

/// Drop the tail half of `bytes` (simulates a torn/short write).
void truncate_tail(std::string& bytes) noexcept;

}  // namespace vdbench::fault
