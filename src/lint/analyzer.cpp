#include "lint/analyzer.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>

#include "lint/scanner.h"

namespace vdbench::lint {
namespace {

struct Suppression {
  std::size_t target_line = 0;
  std::string rule;
  std::size_t comment_line = 0;
  std::size_t comment_column = 0;
  bool used = false;
};

constexpr std::string_view kAllowMarker = "vdlint:allow(";

bool is_rule_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

/// Extract suppressions from the comment tokens. A comment sharing its
/// start line with any code token targets that line; a standalone comment
/// targets the following line.
std::vector<Suppression> parse_suppressions(
    const std::vector<CppToken>& tokens) {
  std::set<std::size_t> code_lines;
  for (const CppToken& token : tokens)
    if (token.type != CppTokenType::kComment &&
        token.type != CppTokenType::kEndOfFile)
      code_lines.insert(token.line);

  std::vector<Suppression> suppressions;
  for (const CppToken& token : tokens) {
    if (token.type != CppTokenType::kComment) continue;
    std::size_t search = 0;
    while ((search = token.text.find(kAllowMarker, search)) !=
           std::string::npos) {
      std::size_t i = search + kAllowMarker.size();
      const std::size_t target = code_lines.contains(token.line)
                                     ? token.line
                                     : token.line + 1;
      while (i < token.text.size() && token.text[i] != ')') {
        while (i < token.text.size() &&
               (token.text[i] == ' ' || token.text[i] == ','))
          ++i;
        std::string rule;
        while (i < token.text.size() && is_rule_char(token.text[i]))
          rule.push_back(token.text[i++]);
        if (!rule.empty())
          suppressions.push_back(
              {target, std::move(rule), token.line, token.column, false});
        else
          break;  // malformed tail: stop scanning this allow-list
      }
      search = i;
    }
  }
  return suppressions;
}

bool has_cpp_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool under_fixtures(const std::string& generic_path) {
  return generic_path.find("lint/fixtures") != std::string::npos;
}

std::string display_for(const std::filesystem::path& path,
                        const std::filesystem::path& root) {
  std::error_code ec;
  const std::filesystem::path rel = std::filesystem::relative(path, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..")
    return path.lexically_normal().generic_string();
  return rel.lexically_normal().generic_string();
}

}  // namespace

std::vector<Finding> analyze_source(const std::string& display_path,
                                    std::string_view source,
                                    const RuleRegistry& registry) {
  const std::vector<CppToken> tokens = scan_cpp(source);
  const LintContext context{display_path, tokens};
  std::vector<Finding> findings = registry.apply(context);

  std::vector<Suppression> suppressions = parse_suppressions(tokens);
  std::vector<Finding> surviving;
  surviving.reserve(findings.size());
  for (Finding& finding : findings) {
    bool suppressed = false;
    if (finding.rule != kUnusedSuppressionRule) {
      for (Suppression& suppression : suppressions) {
        if (suppression.target_line == finding.line &&
            suppression.rule == finding.rule) {
          suppression.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) surviving.push_back(std::move(finding));
  }
  for (const Suppression& suppression : suppressions) {
    if (suppression.used) continue;
    surviving.push_back({display_path, suppression.comment_line,
                         suppression.comment_column, kUnusedSuppressionRule,
                         Severity::kWarning,
                         "suppression for '" + suppression.rule +
                             "' matches no finding; delete it"});
  }
  std::sort(surviving.begin(), surviving.end(), finding_order);
  return surviving;
}

std::vector<Finding> analyze_file(const std::filesystem::path& path,
                                  const std::string& display_path,
                                  const RuleRegistry& registry) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("vdlint: cannot read " + path.string());
  const std::string source{std::istreambuf_iterator<char>(in), {}};
  return analyze_source(display_path, source, registry);
}

std::vector<SourceFile> collect_files(const std::filesystem::path& root,
                                      const std::vector<std::string>& inputs) {
  std::vector<SourceFile> files;
  std::set<std::string> seen;
  const auto push = [&](const std::filesystem::path& path) {
    std::string display = display_for(path, root);
    if (seen.insert(display).second)
      files.push_back({path, std::move(display)});
  };

  for (const std::string& input : inputs) {
    const std::filesystem::path base =
        std::filesystem::path(input).is_absolute() ? std::filesystem::path(input)
                                                   : root / input;
    const bool fixtures_requested = under_fixtures(
        std::filesystem::path(input).lexically_normal().generic_string());
    if (std::filesystem::is_regular_file(base)) {
      push(base);
      continue;
    }
    if (!std::filesystem::is_directory(base))
      throw std::runtime_error("vdlint: no such file or directory: " + input);
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !has_cpp_extension(entry.path()))
        continue;
      if (!fixtures_requested &&
          under_fixtures(entry.path().lexically_normal().generic_string()))
        continue;
      push(entry.path());
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.display < b.display;
            });
  return files;
}

}  // namespace vdbench::lint
