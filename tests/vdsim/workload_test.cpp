#include "vdsim/workload.h"

#include <gtest/gtest.h>

#include <set>

namespace vdbench::vdsim {
namespace {

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.num_services = 40;
  spec.prevalence = 0.15;
  return spec;
}

TEST(VulnTaxonomyTest, ClassesAndNames) {
  EXPECT_EQ(all_vuln_classes().size(), kVulnClassCount);
  std::set<std::string_view> names, cwes;
  for (const VulnClass c : all_vuln_classes()) {
    EXPECT_TRUE(names.insert(vuln_class_name(c)).second);
    EXPECT_TRUE(cwes.insert(vuln_class_cwe(c)).second);
    EXPECT_TRUE(vuln_class_cwe(c).starts_with("CWE-"));
  }
}

TEST(WorkloadSpecTest, ValidationCatchesBadFields) {
  WorkloadSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.num_services = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = WorkloadSpec{};
  spec.prevalence = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = WorkloadSpec{};
  spec.class_mix.fill(0.0);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = WorkloadSpec{};
  spec.sites_per_kloc = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  stats::Rng a(1), b(1);
  const Workload wa = generate_workload(small_spec(), a);
  const Workload wb = generate_workload(small_spec(), b);
  EXPECT_EQ(wa.total_sites(), wb.total_sites());
  EXPECT_EQ(wa.total_vulns(), wb.total_vulns());
  ASSERT_EQ(wa.services().size(), wb.services().size());
  for (std::size_t s = 0; s < wa.services().size(); ++s) {
    EXPECT_EQ(wa.services()[s].candidate_sites,
              wb.services()[s].candidate_sites);
    EXPECT_EQ(wa.services()[s].vulns.size(), wb.services()[s].vulns.size());
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  stats::Rng a(1), b(2);
  const Workload wa = generate_workload(small_spec(), a);
  const Workload wb = generate_workload(small_spec(), b);
  EXPECT_NE(wa.total_sites(), wb.total_sites());
}

TEST(WorkloadTest, StructureIsConsistent) {
  stats::Rng rng(3);
  const Workload w = generate_workload(small_spec(), rng);
  EXPECT_EQ(w.services().size(), 40u);
  std::uint64_t sites = 0, vulns = 0;
  for (const Service& svc : w.services()) {
    EXPECT_GT(svc.candidate_sites, 0u);
    EXPECT_GT(svc.kloc, 0.0);
    EXPECT_LE(svc.vulns.size(), svc.candidate_sites);
    sites += svc.candidate_sites;
    vulns += svc.vulns.size();
    std::set<std::size_t> used_sites;
    for (const VulnInstance& v : svc.vulns) {
      EXPECT_LT(v.site_index, svc.candidate_sites);
      EXPECT_TRUE(used_sites.insert(v.site_index).second)
          << "two vulns share a site";
    }
  }
  EXPECT_EQ(w.total_sites(), sites);
  EXPECT_EQ(w.total_vulns(), vulns);
}

TEST(WorkloadTest, VulnIdsUnique) {
  stats::Rng rng(4);
  const Workload w = generate_workload(small_spec(), rng);
  std::set<std::uint64_t> ids;
  for (const Service& svc : w.services())
    for (const VulnInstance& v : svc.vulns)
      EXPECT_TRUE(ids.insert(v.id).second);
}

TEST(WorkloadTest, RealizedPrevalenceNearSpec) {
  WorkloadSpec spec = small_spec();
  spec.num_services = 400;
  spec.prevalence = 0.10;
  stats::Rng rng(5);
  const Workload w = generate_workload(spec, rng);
  EXPECT_NEAR(w.realized_prevalence(), 0.10, 0.01);
}

TEST(WorkloadTest, ClassMixRespected) {
  WorkloadSpec spec = small_spec();
  spec.num_services = 600;
  spec.prevalence = 0.2;
  spec.class_mix.fill(0.0);
  spec.class_mix[vuln_class_index(VulnClass::kSqlInjection)] = 3.0;
  spec.class_mix[vuln_class_index(VulnClass::kXss)] = 1.0;
  stats::Rng rng(6);
  const Workload w = generate_workload(spec, rng);
  const double sqli =
      static_cast<double>(w.vulns_of_class(VulnClass::kSqlInjection));
  const double xss = static_cast<double>(w.vulns_of_class(VulnClass::kXss));
  EXPECT_EQ(w.vulns_of_class(VulnClass::kBufferOverflow), 0u);
  EXPECT_NEAR(sqli / (sqli + xss), 0.75, 0.03);
}

TEST(WorkloadTest, GroundTruthLookup) {
  stats::Rng rng(7);
  const Workload w = generate_workload(small_spec(), rng);
  std::uint64_t found = 0;
  for (std::size_t s = 0; s < w.services().size(); ++s) {
    const Service& svc = w.services()[s];
    for (const VulnInstance& v : svc.vulns) {
      const VulnInstance* got = w.vuln_at(s, v.site_index);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->id, v.id);
      ++found;
    }
    // A site beyond the service range is clean (nullptr), not an error.
    EXPECT_EQ(w.vuln_at(s, svc.candidate_sites + 10), nullptr);
  }
  EXPECT_EQ(found, w.total_vulns());
  EXPECT_THROW((void)w.vuln_at(w.services().size(), 0), std::out_of_range);
}

TEST(WorkloadTest, ZeroPrevalenceGivesCleanCorpus) {
  WorkloadSpec spec = small_spec();
  spec.prevalence = 0.0;
  stats::Rng rng(8);
  const Workload w = generate_workload(spec, rng);
  EXPECT_EQ(w.total_vulns(), 0u);
  EXPECT_DOUBLE_EQ(w.realized_prevalence(), 0.0);
}

TEST(WorkloadTest, ConstructorRejectsCorruptGroundTruth) {
  WorkloadSpec spec = small_spec();
  Service svc;
  svc.name = "svc";
  svc.kloc = 1.0;
  svc.candidate_sites = 10;
  VulnInstance v;
  v.id = 1;
  v.service_index = 0;
  v.site_index = 15;  // out of range
  v.vuln_class = VulnClass::kXss;
  svc.vulns.push_back(v);
  EXPECT_THROW(Workload(spec, {svc}), std::invalid_argument);

  svc.vulns[0].site_index = 3;
  VulnInstance dup = svc.vulns[0];
  dup.id = 2;
  svc.vulns.push_back(dup);  // same site twice
  EXPECT_THROW(Workload(spec, {svc}), std::invalid_argument);
}

}  // namespace
}  // namespace vdbench::vdsim
