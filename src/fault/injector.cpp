#include "fault/injector.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iterator>

#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vdbench::fault {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

// A multi-clause spec grid ("a=...;b=...;c=...") is only debuggable when a
// parse error pinpoints the clause: every message carries the offending
// clause text verbatim AND its byte offset within the full spec string.
[[noreturn]] void bad_spec(std::string_view clause, std::size_t offset,
                           std::string_view why) {
  throw std::invalid_argument("VDBENCH_FAULTS: bad clause '" +
                              std::string(clause) + "' at offset " +
                              std::to_string(offset) + ": " +
                              std::string(why));
}

std::uint64_t parse_count(std::string_view clause, std::size_t offset,
                          std::string_view digits, std::string_view what) {
  if (digits.empty()) bad_spec(clause, offset, std::string(what) + " is empty");
  // from_chars takes no sign or whitespace for an unsigned type and reports
  // overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [stop, error] = std::from_chars(digits.data(), end, value);
  if (stop != end || error == std::errc::invalid_argument)
    bad_spec(clause, offset,
             std::string(what) + " '" + std::string(digits) +
                 "' is not a positive integer");
  if (error == std::errc::result_out_of_range)
    bad_spec(clause, offset,
             std::string(what) + " '" + std::string(digits) +
                 "' exceeds 2^64-1");
  if (value == 0)
    bad_spec(clause, offset, std::string(what) + " must be >= 1");
  return value;
}

Action parse_action(std::string_view clause, std::size_t offset,
                    std::string_view token) {
  if (token == "io_error") return Action::kIoError;
  if (token == "throw") return Action::kThrow;
  if (token == "timeout") return Action::kTimeout;
  if (token == "corrupt") return Action::kCorrupt;
  if (token == "truncate") return Action::kTruncate;
  bad_spec(clause, offset,
           "unknown action '" + std::string(token) +
               "' (io_error|throw|timeout|corrupt|truncate)");
}

// `offset` is the clause's position inside the full spec string, threaded
// through purely for error messages.
FaultRule parse_clause(std::string_view clause, std::size_t offset) {
  FaultRule rule;
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos) bad_spec(clause, offset, "missing '='");
  const std::string_view point = trim(clause.substr(0, eq));
  if (std::find(std::begin(kKnownPoints), std::end(kKnownPoints), point) ==
      std::end(kKnownPoints))
    bad_spec(clause, offset, "unknown point '" + std::string(point) + "'");
  rule.point = std::string(point);

  const std::string_view rest = trim(clause.substr(eq + 1));
  const std::size_t at = rest.find('@');
  rule.action = parse_action(clause, offset, trim(rest.substr(0, at)));
  if (at == std::string_view::npos) return rule;  // fire on every hit

  std::string_view target = trim(rest.substr(at + 1));
  const std::size_t colon = target.rfind(':');
  if (colon != std::string_view::npos) {
    rule.key = std::string(trim(target.substr(0, colon)));
    if (rule.key.empty()) bad_spec(clause, offset, "empty key before ':'");
    target = trim(target.substr(colon + 1));
  }
  const std::size_t x = target.find('x');
  if (x != std::string_view::npos) {
    rule.trigger =
        parse_count(clause, offset, target.substr(0, x), "trigger count");
    rule.repeat =
        parse_count(clause, offset, target.substr(x + 1), "repeat count");
  } else {
    rule.trigger = parse_count(clause, offset, target, "trigger count");
  }
  return rule;
}

}  // namespace

std::string_view action_name(Action action) noexcept {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kIoError: return "io_error";
    case Action::kThrow: return "throw";
    case Action::kTimeout: return "timeout";
    case Action::kCorrupt: return "corrupt";
    case Action::kTruncate: return "truncate";
  }
  return "unknown";
}

std::vector<FaultRule> Injector::parse(std::string_view spec) {
  std::vector<FaultRule> rules;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = trim(spec.substr(pos, end - pos));
    if (!clause.empty())
      rules.push_back(parse_clause(
          clause, static_cast<std::size_t>(clause.data() - spec.data())));
    if (end == spec.size()) break;
    pos = end + 1;
  }
  return rules;
}

void Injector::arm(std::string_view spec) {
  std::vector<FaultRule> rules = parse(spec);  // may throw; state untouched
  const core::MutexLock lock(mutex_);
  rules_ = std::move(rules);
  total_fired_.store(0, std::memory_order_relaxed);
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

bool Injector::arm_from_env() {
  const char* spec = std::getenv("VDBENCH_FAULTS");
  if (spec == nullptr || *spec == '\0') return false;
  arm(spec);
  return true;
}

void Injector::disarm() noexcept {
  const core::MutexLock lock(mutex_);
  rules_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

Action Injector::hit(std::string_view point, std::string_view key) {
  if (!armed()) return Action::kNone;
  const core::MutexLock lock(mutex_);
  Action result = Action::kNone;
  for (FaultRule& rule : rules_) {
    if (rule.point != point) continue;
    if (!rule.key.empty() && rule.key != key) continue;
    const std::uint64_t ordinal = ++rule.hits;
    const bool fires =
        rule.trigger == 0 ||
        (ordinal >= rule.trigger && ordinal < rule.trigger + rule.repeat);
    if (fires && result == Action::kNone) {
      ++rule.fired;
      total_fired_.fetch_add(1, std::memory_order_relaxed);
      result = rule.action;
    }
  }
  if (result != Action::kNone) {
    // Every firing is observable: the run manifest's telemetry counts it
    // and a trace shows exactly where inside the study the fault landed.
    obs::count(obs::Counter::kFaultFires);
    obs::instant(obs::names::kFaultFire, std::string(point) + "=" +
                                   std::string(action_name(result)) +
                                   (key.empty() ? std::string()
                                                : "@" + std::string(key)));
  }
  return result;
}

std::uint64_t Injector::total_fired() const noexcept {
  return total_fired_.load(std::memory_order_relaxed);
}

Injector& Injector::global() {
  static Injector instance;
  return instance;
}

void flip_one_bit(std::string& bytes, std::uint64_t salt) noexcept {
  if (bytes.empty()) return;
  // Weyl-style mix so consecutive salts land on well-spread bytes.
  const std::uint64_t mixed = (salt + 1) * 0x9E3779B97F4A7C15ULL;
  bytes[mixed % bytes.size()] ^= static_cast<char>(1 << (mixed % 8));
}

void truncate_tail(std::string& bytes) noexcept {
  bytes.resize(bytes.size() / 2);
}

}  // namespace vdbench::fault
