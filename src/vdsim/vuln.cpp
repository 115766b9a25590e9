#include "vdsim/vuln.h"

namespace vdbench::vdsim {

namespace {

constexpr std::array<VulnClass, kVulnClassCount> kClasses = {
    VulnClass::kSqlInjection,   VulnClass::kXss,
    VulnClass::kCommandInjection, VulnClass::kPathTraversal,
    VulnClass::kBufferOverflow, VulnClass::kIntegerOverflow,
    VulnClass::kUseAfterFree,   VulnClass::kWeakCrypto,
};

}  // namespace

std::span<const VulnClass> all_vuln_classes() { return kClasses; }

std::string_view vuln_class_name(VulnClass c) {
  switch (c) {
    case VulnClass::kSqlInjection:
      return "SQL injection";
    case VulnClass::kXss:
      return "cross-site scripting";
    case VulnClass::kCommandInjection:
      return "command injection";
    case VulnClass::kPathTraversal:
      return "path traversal";
    case VulnClass::kBufferOverflow:
      return "buffer overflow";
    case VulnClass::kIntegerOverflow:
      return "integer overflow";
    case VulnClass::kUseAfterFree:
      return "use after free";
    case VulnClass::kWeakCrypto:
      return "weak cryptography";
  }
  return "?";
}

std::string_view vuln_class_cwe(VulnClass c) {
  switch (c) {
    case VulnClass::kSqlInjection:
      return "CWE-89";
    case VulnClass::kXss:
      return "CWE-79";
    case VulnClass::kCommandInjection:
      return "CWE-78";
    case VulnClass::kPathTraversal:
      return "CWE-22";
    case VulnClass::kBufferOverflow:
      return "CWE-120";
    case VulnClass::kIntegerOverflow:
      return "CWE-190";
    case VulnClass::kUseAfterFree:
      return "CWE-416";
    case VulnClass::kWeakCrypto:
      return "CWE-327";
  }
  return "?";
}

}  // namespace vdbench::vdsim
