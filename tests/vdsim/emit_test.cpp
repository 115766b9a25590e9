#include "vdsim/emit.h"

#include <gtest/gtest.h>

#include <string>

#include "sast/parser.h"

namespace vdbench::vdsim {
namespace {

// A one-service workload with hand-picked instances, so every emitted
// shape (and its difficulty threshold) is pinned down exactly.
Workload handmade_workload() {
  Service svc;
  svc.name = "service-0";
  svc.kloc = 1.0;
  svc.candidate_sites = 40;
  const auto add = [&](std::size_t site, VulnClass c, double difficulty) {
    VulnInstance v;
    v.id = site;
    v.service_index = 0;
    v.site_index = site;
    v.vuln_class = c;
    v.difficulty = difficulty;
    svc.vulns.push_back(v);
  };
  add(0, VulnClass::kSqlInjection, 0.10);   // direct flow
  add(1, VulnClass::kSqlInjection, 0.45);   // one helper
  add(2, VulnClass::kSqlInjection, 0.70);   // two helpers (still caught)
  add(3, VulnClass::kSqlInjection, 0.90);   // three helpers (blind spot)
  add(4, VulnClass::kXss, 0.20);            // concat markup
  add(5, VulnClass::kXss, 0.80);            // format markup (blind spot)
  add(6, VulnClass::kPathTraversal, 0.30);
  add(7, VulnClass::kPathTraversal, 0.75);  // to_lower wash (blind spot)
  add(8, VulnClass::kBufferOverflow, 0.30);
  add(9, VulnClass::kBufferOverflow, 0.80); // sink in helper (blind spot)
  add(10, VulnClass::kWeakCrypto, 0.20);
  add(11, VulnClass::kWeakCrypto, 0.80);    // concat'd literal (blind spot)
  add(12, VulnClass::kCommandInjection, 0.50);
  add(13, VulnClass::kIntegerOverflow, 0.50);
  add(14, VulnClass::kUseAfterFree, 0.50);

  WorkloadSpec spec;
  spec.num_services = 1;
  return Workload(spec, {svc});
}

TEST(EmitTest, SqliIndirectionDepthFollowsThresholds) {
  EXPECT_EQ(sqli_indirection_depth(0.0), 0u);
  EXPECT_EQ(sqli_indirection_depth(0.29), 0u);
  EXPECT_EQ(sqli_indirection_depth(0.30), 1u);
  EXPECT_EQ(sqli_indirection_depth(0.59), 1u);
  EXPECT_EQ(sqli_indirection_depth(0.60), 2u);
  EXPECT_EQ(sqli_indirection_depth(0.84), 2u);
  EXPECT_EQ(sqli_indirection_depth(0.85), 3u);
  EXPECT_EQ(sqli_indirection_depth(1.0), 3u);
}

TEST(EmitTest, CleanVariantIsDeterministicPureHash) {
  for (std::size_t s = 0; s < 5; ++s)
    for (std::size_t site = 0; site < 50; ++site)
      EXPECT_EQ(clean_variant(s, site), clean_variant(s, site));

  // All three shapes occur in a modest window (1/16 and 2/16 buckets).
  std::size_t typed = 0;
  std::size_t sanitized = 0;
  std::size_t benign = 0;
  for (std::size_t site = 0; site < 320; ++site) {
    switch (clean_variant(0, site)) {
      case CleanVariant::kTypedTaint: ++typed; break;
      case CleanVariant::kSanitizedFlow: ++sanitized; break;
      case CleanVariant::kBenign: ++benign; break;
    }
  }
  EXPECT_GT(typed, 0u);
  EXPECT_GT(sanitized, typed);  // two buckets vs one
  EXPECT_GT(benign, sanitized);
}

TEST(EmitTest, EmissionIsAPureFunctionOfTheWorkload) {
  const Workload workload = handmade_workload();
  const CodeEmitter emitter(workload);
  EXPECT_EQ(emitter.emit_service(0).text, emitter.emit_service(0).text);
  EXPECT_EQ(emitter.emit_service(0).name, "service-0.mini");
  EXPECT_THROW((void)emitter.emit_service(1), std::out_of_range);
}

TEST(EmitTest, EmittedShapesTrackDifficultyThresholds) {
  const std::string text =
      CodeEmitter(handmade_workload()).emit_service(0).text;

  // SQLi nesting: site 2 (d=0.70) gets a two-helper chain, site 3
  // (d=0.90) a three-helper chain.
  EXPECT_NE(text.find("fn w2_2(x)"), std::string::npos);
  EXPECT_EQ(text.find("fn w2_3(x)"), std::string::npos);
  EXPECT_NE(text.find("fn w3_3(x)"), std::string::npos);

  // XSS: concat below the threshold, format at/above it.
  EXPECT_NE(text.find("concat(\"<h1>Hello \", name)"), std::string::npos);
  EXPECT_NE(text.find("format(\"<h1>Hello {}</h1>\", name)"),
            std::string::npos);

  // Path traversal: the hard variant washes through to_lower.
  EXPECT_NE(text.find("to_lower(f)"), std::string::npos);

  // Buffer overflow: the hard variant hides the copy in a helper.
  EXPECT_NE(text.find("fn copy9(x)"), std::string::npos);
  EXPECT_EQ(text.find("fn copy8(x)"), std::string::npos);

  // Credentials: literal below the threshold, concat'd literal above.
  EXPECT_NE(text.find("auth_check(\"admin\", \"hunter2\")"),
            std::string::npos);
  EXPECT_NE(text.find("concat(\"hun\", \"ter2\")"), std::string::npos);
}

TEST(EmitTest, EmittedSourceParsesAndRoundTrips) {
  const Workload workload = handmade_workload();
  const std::string text = CodeEmitter(workload).emit_service(0).text;
  const sast::Program program = sast::parse(text);

  // One entry function per candidate site, plus the helper chains.
  std::size_t entries = 0;
  for (const sast::Function& fn : program.functions)
    if (fn.name.rfind("site_", 0) == 0) ++entries;
  EXPECT_EQ(entries, workload.services()[0].candidate_sites);

  // The canonical rendering of the parse is itself a fixed point.
  const std::string canonical = sast::to_source(program);
  EXPECT_EQ(sast::to_source(sast::parse(canonical)), canonical);
}

TEST(EmitTest, GeneratedWorkloadEmitsParseableServices) {
  WorkloadSpec spec;
  spec.num_services = 8;
  stats::Rng rng(7);
  const Workload workload = generate_workload(spec, rng);
  const CodeEmitter emitter(workload);
  for (std::size_t s = 0; s < workload.services().size(); ++s)
    EXPECT_NO_THROW((void)sast::parse(emitter.emit_service(s).text))
        << "service " << s;
}

}  // namespace
}  // namespace vdbench::vdsim
