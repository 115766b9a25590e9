#include "vdsim/emit.h"

#include <stdexcept>

namespace vdbench::vdsim {

namespace {

// splitmix64 finalizer — the same deterministic mixing used for cache
// digests, reimplemented locally to keep vdsim free of a cache dependency.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t site_hash(std::size_t service_index, std::size_t site_index) {
  return mix64((static_cast<std::uint64_t>(service_index) << 32) ^
               static_cast<std::uint64_t>(site_index));
}

std::string site_fn(std::size_t site_index) {
  return "site_" + std::to_string(site_index);
}

std::string helper_fn(std::size_t site_index, std::size_t level) {
  return "w" + std::to_string(site_index) + "_" + std::to_string(level);
}

// --- clean-site shapes -----------------------------------------------------

void emit_benign(std::string& out, std::size_t site) {
  out += "fn " + site_fn(site) + "() {\n";
  out += "  let msg = concat(\"svc ok \", \"" + std::to_string(site) +
         "\");\n";
  out += "  log_msg(msg);\n";
  out += "}\n";
}

// source → recognised sanitizer → sink; the analyzer must stay silent
// (sanitizer-kills-taint). The channel cycles with the hash so all four
// sanitizers appear in every corpus.
void emit_sanitized(std::string& out, std::size_t site, std::uint64_t hash) {
  out += "fn " + site_fn(site) + "() {\n";
  out += "  let raw = input(\"q\");\n";
  switch ((hash >> 8) % 4) {
    case 0:
      out += "  let safe = sanitize_sql(raw);\n";
      out += "  let sql = concat(\"SELECT v FROM t WHERE k='\", safe);\n";
      out += "  exec_sql(sql);\n";
      break;
    case 1:
      out += "  let safe = escape_html(raw);\n";
      out += "  let page = concat(\"<p>\", safe);\n";
      out += "  render_html(page);\n";
      break;
    case 2:
      out += "  let safe = shell_escape(raw);\n";
      out += "  let cmd = concat(\"stat \", safe);\n";
      out += "  run_cmd(cmd);\n";
      break;
    default:
      out += "  let safe = normalize_path(raw);\n";
      out += "  let path = concat(\"/srv/data/\", safe);\n";
      out += "  open_file(path);\n";
      break;
  }
  out += "}\n";
}

// source → to_int → concat → sink: semantically safe (the value is a
// number) but the engine tracks taint through to_int, so SQLI-001 reports
// it at reduced confidence — the analyzer's deterministic false positive.
void emit_typed_taint(std::string& out, std::size_t site) {
  out += "fn " + site_fn(site) + "() {\n";
  out += "  let raw = input(\"page\");\n";
  out += "  let n = to_int(raw);\n";
  out += "  let sql = concat(\"SELECT v FROM t LIMIT \", n);\n";
  out += "  exec_sql(sql);\n";
  out += "}\n";
}

// --- seeded vulnerability shapes -------------------------------------------

void emit_sqli(std::string& out, const VulnInstance& v) {
  const std::size_t depth = sqli_indirection_depth(v.difficulty);
  const std::size_t site = v.site_index;
  // Nested helper chain: w_1 calls w_2 calls ... w_depth; the innermost
  // touches the value. The sast engine must inline `depth` nested calls to
  // follow the taint.
  for (std::size_t level = depth; level >= 1; --level) {
    out += "fn " + helper_fn(site, level) + "(x) {\n";
    if (level == depth)
      out += "  let y = concat(x, \"\");\n";
    else
      out += "  let y = " + helper_fn(site, level + 1) + "(x);\n";
    out += "  return y;\n";
    out += "}\n";
  }
  out += "fn " + site_fn(site) + "() {\n";
  out += "  let id = input(\"id\");\n";
  if (depth > 0) out += "  let t = " + helper_fn(site, 1) + "(id);\n";
  out += "  let sql = concat(\"SELECT * FROM users WHERE id='\", " +
         std::string(depth > 0 ? "t" : "id") + ");\n";
  out += "  exec_sql(sql);\n";
  out += "}\n";
}

void emit_xss(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  out += "  let name = input(\"name\");\n";
  if (v.difficulty >= kXssFormatDifficulty)
    out += "  let page = format(\"<h1>Hello {}</h1>\", name);\n";
  else
    out += "  let page = concat(\"<h1>Hello \", name);\n";
  out += "  render_html(page);\n";
  out += "}\n";
}

void emit_cmdi(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  out += "  let host = input(\"host\");\n";
  out += "  let cmd = concat(\"ping -c1 \", host);\n";
  out += "  run_cmd(cmd);\n";
  out += "}\n";
}

void emit_path(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  out += "  let f = input(\"file\");\n";
  if (v.difficulty >= kPathLowerDifficulty) {
    out += "  let lower = to_lower(f);\n";
    out += "  let path = concat(\"/srv/data/\", lower);\n";
  } else {
    out += "  let path = concat(\"/srv/data/\", f);\n";
  }
  out += "  open_file(path);\n";
  out += "}\n";
}

void emit_bof(std::string& out, const VulnInstance& v) {
  const std::size_t site = v.site_index;
  if (v.difficulty >= kBofHelperDifficulty) {
    // The unchecked copy happens inside a helper: invisible to the
    // summary-only engine.
    out += "fn copy" + std::to_string(site) + "(x) {\n";
    out += "  memcpy_buf(\"buf64\", x);\n";
    out += "  return x;\n";
    out += "}\n";
    out += "fn " + site_fn(site) + "() {\n";
    out += "  let data = input(\"data\");\n";
    out += "  let r = copy" + std::to_string(site) + "(data);\n";
    out += "  log_msg(r);\n";
    out += "}\n";
  } else {
    out += "fn " + site_fn(site) + "() {\n";
    out += "  let data = input(\"data\");\n";
    out += "  memcpy_buf(\"buf64\", data);\n";
    out += "}\n";
  }
}

void emit_intof(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  out += "  let len = input_num(\"len\");\n";
  out += "  let total = mul(len, 8);\n";
  out += "  alloc_buf(total);\n";
  out += "}\n";
}

void emit_uaf(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  out += "  let o = new_obj();\n";
  out += "  free_obj(o);\n";
  out += "  use_obj(o);\n";
  out += "}\n";
}

void emit_creds(std::string& out, const VulnInstance& v) {
  out += "fn " + site_fn(v.site_index) + "() {\n";
  if (v.difficulty >= kCredConcatDifficulty) {
    out += "  let secret = concat(\"hun\", \"ter2\");\n";
    out += "  auth_check(\"admin\", secret);\n";
  } else {
    out += "  auth_check(\"admin\", \"hunter2\");\n";
  }
  out += "}\n";
}

void emit_vuln(std::string& out, const VulnInstance& v) {
  switch (v.vuln_class) {
    case VulnClass::kSqlInjection: emit_sqli(out, v); break;
    case VulnClass::kXss: emit_xss(out, v); break;
    case VulnClass::kCommandInjection: emit_cmdi(out, v); break;
    case VulnClass::kPathTraversal: emit_path(out, v); break;
    case VulnClass::kBufferOverflow: emit_bof(out, v); break;
    case VulnClass::kIntegerOverflow: emit_intof(out, v); break;
    case VulnClass::kUseAfterFree: emit_uaf(out, v); break;
    case VulnClass::kWeakCrypto: emit_creds(out, v); break;
  }
}

}  // namespace

std::size_t sqli_indirection_depth(double difficulty) {
  if (difficulty < 0.30) return 0;
  if (difficulty < 0.60) return 1;
  if (difficulty < 0.85) return 2;
  return 3;
}

CleanVariant clean_variant(std::size_t service_index,
                           std::size_t site_index) {
  const std::uint64_t bucket = site_hash(service_index, site_index) % 16;
  if (bucket == 7) return CleanVariant::kTypedTaint;
  if (bucket == 3 || bucket == 11) return CleanVariant::kSanitizedFlow;
  return CleanVariant::kBenign;
}

SourceFile CodeEmitter::emit_service(std::size_t service_index) const {
  if (service_index >= workload_->services().size())
    throw std::out_of_range("CodeEmitter: bad service index");
  const Service& svc = workload_->services()[service_index];
  SourceFile file;
  file.name = svc.name + ".mini";
  file.service_index = service_index;
  std::string& out = file.text;
  out += "# " + svc.name + ": " + std::to_string(svc.candidate_sites) +
         " sites, " + std::to_string(svc.vulns.size()) +
         " seeded instances\n";
  for (std::size_t site = 0; site < svc.candidate_sites; ++site) {
    const VulnInstance* vuln = workload_->vuln_at(service_index, site);
    if (vuln != nullptr) {
      emit_vuln(out, *vuln);
      continue;
    }
    switch (clean_variant(service_index, site)) {
      case CleanVariant::kBenign:
        emit_benign(out, site);
        break;
      case CleanVariant::kSanitizedFlow:
        emit_sanitized(out, site, site_hash(service_index, site));
        break;
      case CleanVariant::kTypedTaint:
        emit_typed_taint(out, site);
        break;
    }
  }
  return file;
}

}  // namespace vdbench::vdsim
