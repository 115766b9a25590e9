#include "lint/rules.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string_view>

#include "fault/injector.h"
#include "obs/names.h"

namespace vdbench::lint {
namespace {

bool path_starts_with(const LintContext& ctx, std::string_view prefix) {
  return ctx.file.size() >= prefix.size() &&
         std::string_view(ctx.file).substr(0, prefix.size()) == prefix;
}

bool path_is(const LintContext& ctx, std::string_view exact) {
  return ctx.file == exact;
}

bool is_punct(const CppToken& token, std::string_view text) {
  return token.type == CppTokenType::kPunct && token.text == text;
}

bool is_ident(const CppToken& token, std::string_view text) {
  return token.type == CppTokenType::kIdentifier && token.text == text;
}

/// Identity of the rule running a check, captured by value into the rule's
/// closure so checks stay plain functions.
struct RuleMeta {
  std::string id;
  Severity severity = Severity::kError;
};

void report(std::vector<Finding>& out, const LintContext& ctx,
            const CppToken& at, const RuleMeta& rule, std::string message) {
  out.push_back({ctx.file, at.line, at.column, rule.id, rule.severity,
                 std::move(message)});
}

/// The token stream with comments removed, so adjacency patterns ("next
/// token is '('") hold across intervening comments.
std::vector<const CppToken*> code_tokens(const LintContext& ctx) {
  std::vector<const CppToken*> code;
  code.reserve(ctx.tokens.size());
  for (const CppToken& token : ctx.tokens)
    if (token.type != CppTokenType::kComment) code.push_back(&token);
  return code;
}

const CppToken* at(const std::vector<const CppToken*>& code,
                   std::size_t index) {
  static const CppToken kNone{CppTokenType::kEndOfFile, "", 0, 0};
  return index < code.size() ? code[index] : &kNone;
}

bool is_member_access(const std::vector<const CppToken*>& code,
                      std::size_t i) {
  if (i == 0) return false;
  return is_punct(*code[i - 1], ".") || is_punct(*code[i - 1], "->");
}

bool is_std_qualified(const std::vector<const CppToken*>& code,
                      std::size_t i) {
  return i >= 2 && is_punct(*code[i - 1], "::") && is_ident(*code[i - 2], "std");
}

// --- banned-nondeterminism rules -----------------------------------------

void check_rand(const RuleMeta& rule, const LintContext& ctx,
                std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const CppToken& token = *code[i];
    if (!is_ident(token, "rand") && !is_ident(token, "srand")) continue;
    const bool call = is_punct(*at(code, i + 1), "(");
    if (is_std_qualified(code, i) || (call && !is_member_access(code, i))) {
      report(out, ctx, token, rule,
             "std::" + token.text +
                 " is banned nondeterminism; draw from a seeded stats::Rng");
    }
  }
}

void check_random_device(const RuleMeta& rule, const LintContext& ctx,
                         std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!is_ident(*code[i], "random_device")) continue;
    report(out, ctx, *code[i], rule,
           "std::random_device is banned nondeterminism; seeds come from "
           "configuration (stats::Rng)");
  }
}

void check_std_distribution(const RuleMeta& rule, const LintContext& ctx,
                            std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const CppToken& token = *code[i];
    if (token.type != CppTokenType::kIdentifier) continue;
    const bool distribution =
        token.text.ends_with("_distribution") && is_std_qualified(code, i);
    if (!distribution && token.text != "generate_canonical") continue;
    report(out, ctx, token, rule,
           "std::" + token.text +
               "'s algorithm is left to the standard library, so its "
               "numbers differ between toolchains; draw from stats::Rng");
  }
}

void check_time(const RuleMeta& rule, const LintContext& ctx,
                std::vector<Finding>& out) {
  if (path_starts_with(ctx, "src/obs/")) return;
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const CppToken& token = *code[i];
    if (!is_ident(token, "time")) continue;
    if (!is_punct(*at(code, i + 1), "(")) continue;
    if (is_member_access(code, i)) continue;
    if (i >= 1 && is_punct(*code[i - 1], "::") && !is_std_qualified(code, i))
      continue;  // some_namespace::time — not the libc clock
    report(out, ctx, token, rule,
           "time() reads the wall clock outside src/obs/; use "
           "obs::wall_clock_seconds() or an injected clock");
  }
}

void check_wallclock_now(const RuleMeta& rule, const LintContext& ctx,
                         std::vector<Finding>& out) {
  if (path_starts_with(ctx, "src/obs/")) return;
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!is_ident(*code[i], "system_clock")) continue;
    if (!is_punct(*code[i + 1], "::") || !is_ident(*code[i + 2], "now"))
      continue;
    report(out, ctx, *code[i], rule,
           "system_clock::now() outside src/obs/ breaks replay determinism; "
           "use obs::wall_clock_seconds() or an injected clock");
  }
}

// --- registry-backed spelling rules --------------------------------------

/// True when `text` is one of the compiled table's names.
bool listed(std::span<const char* const> table, std::string_view text) {
  return std::find(table.begin(), table.end(), text) != table.end();
}

void check_span_name(const RuleMeta& rule, const LintContext& ctx,
                     std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const CppToken& head = *code[i];
    std::size_t open = 0;
    if (is_ident(head, "Span")) {
      // `Span span(...)` declaration or `Span(...)` temporary/constructor.
      if (is_punct(*at(code, i + 1), "(")) {
        open = i + 1;
      } else if (at(code, i + 1)->type == CppTokenType::kIdentifier &&
                 is_punct(*at(code, i + 2), "(")) {
        open = i + 2;
      } else {
        continue;
      }
    } else if (is_ident(head, "instant")) {
      if (!is_punct(*at(code, i + 1), "(")) continue;
      open = i + 1;
    } else {
      continue;
    }
    // Both Span and instant take (name, detail): only the first top-level
    // argument is the span name, so stop at the first depth-1 comma. The
    // detail argument carries free-form text.
    int depth = 0;
    for (std::size_t j = open; j < code.size(); ++j) {
      const CppToken& token = *code[j];
      if (is_punct(token, "(") || is_punct(token, "{") || is_punct(token, "["))
        ++depth;
      else if (is_punct(token, ")") || is_punct(token, "}") ||
               is_punct(token, "]")) {
        if (--depth == 0) break;
      } else if (is_punct(token, ",") && depth == 1) {
        break;
      } else if (token.type == CppTokenType::kString && depth == 1 &&
                 !listed(obs::names::kAllSpans, token.text)) {
        report(out, ctx, token, rule,
               "span name \"" + token.text +
                   "\" is not registered in src/obs/names.h; use the "
                   "registered constant or add one");
      }
    }
  }
}

void check_fault_point(const RuleMeta& rule, const LintContext& ctx,
                       std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!is_ident(*code[i], "hit")) continue;
    if (!is_punct(*code[i + 1], "(")) continue;
    const CppToken& arg = *code[i + 2];
    if (arg.type != CppTokenType::kString) continue;
    if (listed(fault::kKnownPoints, arg.text)) continue;
    report(out, ctx, arg, rule,
           "fault point \"" + arg.text +
               "\" is not in fault::kKnownPoints (src/fault/injector.h); "
               "hits on unregistered points can never be armed");
  }
}

void check_stage_literal(const RuleMeta& rule, const LintContext& ctx,
                         std::vector<Finding>& out) {
  if (path_is(ctx, "src/obs/names.h")) return;
  for (const CppToken& token : ctx.tokens) {
    if (token.type != CppTokenType::kString) continue;
    bool hit = listed(obs::names::stage::kAllNames, token.text);
    for (const std::string_view prefix : obs::names::stage::kAllPrefixes) {
      if (hit) break;
      hit = token.text.size() > prefix.size() &&
            token.text.starts_with(prefix);
    }
    if (!hit) continue;
    report(out, ctx, token, rule,
           "\"" + token.text +
               "\" duplicates a bench::stage:: label; spell it via the "
               "constant so renames stay atomic");
  }
}

void check_phase_literal(const RuleMeta& rule, const LintContext& ctx,
                         std::vector<Finding>& out) {
  const auto code = code_tokens(ctx);
  for (std::size_t i = 1; i + 2 < code.size(); ++i) {
    if (!is_ident(*code[i], "scope") && !is_ident(*code[i], "stage")) continue;
    if (!is_punct(*code[i - 1], ".") && !is_punct(*code[i - 1], "->"))
      continue;
    if (!is_punct(*code[i + 1], "(")) continue;
    const CppToken& arg = *code[i + 2];
    if (arg.type != CppTokenType::kString) continue;
    report(out, ctx, arg, rule,
           "StageTimer phase \"" + arg.text +
               "\" passed as a raw literal; use a bench::stage:: or "
               "obs::names:: constant");
  }
}

// --- export/environment hygiene rules ------------------------------------

void check_unordered_export(const RuleMeta& rule, const LintContext& ctx,
                            std::vector<Finding>& out) {
  if (path_starts_with(ctx, "src/report/")) return;
  bool exports = false;
  for (const CppToken& token : ctx.tokens) {
    if (token.type == CppTokenType::kDirective &&
        token.text.find("include") != std::string::npos &&
        token.text.find("report/json.h") != std::string::npos) {
      exports = true;
      break;
    }
  }
  if (!exports) return;
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i < code.size(); ++i) {
    const CppToken& token = *code[i];
    if (!is_ident(token, "unordered_map") && !is_ident(token, "unordered_set"))
      continue;
    report(out, ctx, token, rule,
           "std::" + token.text +
               " in a JsonWriter translation unit: iteration order would "
               "leak into export bytes; use std::map/std::set or sort");
  }
}

void check_env_prefix(const RuleMeta& rule, const LintContext& ctx,
                      std::vector<Finding>& out) {
  if (path_is(ctx, "src/stats/env.h") || path_is(ctx, "src/stats/env.cpp"))
    return;
  const auto code = code_tokens(ctx);
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    const CppToken& token = *code[i];
    if (!is_ident(token, "getenv") && !is_ident(token, "env_string") &&
        !is_ident(token, "env_uint64") &&
        !is_ident(token, "env_uint64_at_least"))
      continue;
    if (!is_punct(*code[i + 1], "(")) continue;
    const CppToken& arg = *code[i + 2];
    if (arg.type != CppTokenType::kString) continue;
    if (arg.text.starts_with("VDBENCH_")) continue;
    report(out, ctx, arg, rule,
           "environment variable \"" + arg.text +
               "\" read without the VDBENCH_ prefix; harness knobs share "
               "one namespace");
  }
}

void check_thread_local(const RuleMeta& rule, const LintContext& ctx,
                        std::vector<Finding>& out) {
  static constexpr std::string_view kAllowed[] = {"src/stats/parallel.cpp",
                                                  "src/obs/trace.cpp"};
  for (const std::string_view allowed : kAllowed)
    if (path_is(ctx, allowed)) return;
  for (const CppToken& token : ctx.tokens) {
    if (!is_ident(token, "thread_local")) continue;
    report(out, ctx, token, rule,
           "thread_local outside the audited allowlist (stats/parallel, "
           "obs/trace); per-thread state is a determinism hazard — justify "
           "and extend the allowlist in src/lint/rules.cpp");
  }
}

// --- header hygiene rules ------------------------------------------------

void check_pragma_once(const RuleMeta& rule, const LintContext& ctx,
                       std::vector<Finding>& out) {
  if (!ctx.file.ends_with(".h") && !ctx.file.ends_with(".hpp")) return;
  for (const CppToken& token : ctx.tokens) {
    if (token.type == CppTokenType::kComment) continue;
    if (token.type == CppTokenType::kEndOfFile) return;  // empty header
    if (token.type == CppTokenType::kDirective) {
      std::string_view text = token.text;
      while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
        text.remove_prefix(1);
      if (text.starts_with("pragma") &&
          text.find("once") != std::string_view::npos)
        return;
    }
    report(out, ctx, token, rule,
           "header does not open with #pragma once (after the file comment)");
    return;
  }
}

void check_include_path(const RuleMeta& rule, const LintContext& ctx,
                        std::vector<Finding>& out) {
  for (const CppToken& token : ctx.tokens) {
    if (token.type != CppTokenType::kDirective) continue;
    std::string_view text = token.text;
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
      text.remove_prefix(1);
    if (!text.starts_with("include")) continue;
    const std::size_t open = text.find('"');
    if (open == std::string_view::npos) continue;  // <system> include
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string_view::npos) continue;
    const std::string_view path = text.substr(open + 1, close - open - 1);
    if (path.find("..") != std::string_view::npos ||
        path.starts_with("./") || path.starts_with("/")) {
      report(out, ctx, token, rule,
             "include path \"" + std::string(path) +
                 "\" escapes the include roots; quote paths relative to "
                 "src/ or bench/");
    }
  }
}

}  // namespace

void RuleRegistry::add(LintRule rule) {
  if (rule.id.empty())
    throw std::invalid_argument("lint rule id must not be empty");
  if (!rule.check)
    throw std::invalid_argument("lint rule " + rule.id + " has no check");
  for (const LintRule& existing : rules_)
    if (existing.id == rule.id)
      throw std::invalid_argument("duplicate lint rule id " + rule.id);
  rules_.push_back(std::move(rule));
}

const LintRule* RuleRegistry::find(const std::string& id) const noexcept {
  for (const LintRule& rule : rules_)
    if (rule.id == id) return &rule;
  return nullptr;
}

std::vector<Finding> RuleRegistry::apply(const LintContext& context) const {
  std::vector<Finding> findings;
  for (const LintRule& rule : rules_) rule.check(context, findings);
  std::sort(findings.begin(), findings.end(), finding_order);
  return findings;
}

RuleRegistry RuleRegistry::default_rules() {
  RuleRegistry registry;
  const auto add = [&registry](std::string id, Severity severity,
                               std::string summary,
                               void (*check)(const RuleMeta&,
                                             const LintContext&,
                                             std::vector<Finding>&)) {
    LintRule rule;
    rule.id = id;
    rule.severity = severity;
    rule.summary = std::move(summary);
    rule.check = [check, meta = RuleMeta{std::move(id), severity}](
                     const LintContext& ctx, std::vector<Finding>& out) {
      check(meta, ctx, out);
    };
    registry.add(std::move(rule));
  };
  add("vdl-rand", Severity::kError,
      "std::rand/srand banned; use seeded stats::Rng", check_rand);
  add("vdl-random-device", Severity::kError,
      "std::random_device banned; seeds come from configuration",
      check_random_device);
  add("vdl-std-distribution", Severity::kError,
      "std::*_distribution and generate_canonical banned; use stats::Rng",
      check_std_distribution);
  add("vdl-time", Severity::kError,
      "time() wall-clock reads banned outside src/obs/", check_time);
  add("vdl-wallclock-now", Severity::kError,
      "chrono::system_clock::now() banned outside src/obs/",
      check_wallclock_now);
  add("vdl-span-name", Severity::kError,
      "Span/instant literals must be registered in src/obs/names.h",
      check_span_name);
  add("vdl-fault-point", Severity::kError,
      "hit(\"...\") literals must be in fault::kKnownPoints",
      check_fault_point);
  add("vdl-stage-literal", Severity::kError,
      "bench::stage:: labels must not be respelled as raw literals",
      check_stage_literal);
  add("vdl-phase-literal", Severity::kError,
      "StageTimer scope()/stage() phases must use named constants",
      check_phase_literal);
  add("vdl-unordered-export", Severity::kError,
      "no unordered containers in JsonWriter translation units",
      check_unordered_export);
  add("vdl-env-prefix", Severity::kError,
      "environment reads must use the VDBENCH_ prefix", check_env_prefix);
  add("vdl-thread-local", Severity::kError,
      "thread_local only in the audited allowlist", check_thread_local);
  add("vdl-pragma-once", Severity::kWarning,
      "headers open with #pragma once", check_pragma_once);
  add("vdl-include-path", Severity::kWarning,
      "quoted includes stay relative to the include roots",
      check_include_path);
  // Emitted by the suppression pass in analyzer.cpp; registered here so
  // the rule inventory in --json/--sarif reports is complete.
  LintRule unused;
  unused.id = kUnusedSuppressionRule;
  unused.severity = Severity::kWarning;
  unused.summary = "every vdlint:allow comment must match a finding";
  unused.check = [](const LintContext&, std::vector<Finding>&) {};
  registry.add(std::move(unused));
  return registry;
}

}  // namespace vdbench::lint
