#include "vdsim/presets.h"

#include <gtest/gtest.h>

#include <set>

namespace vdbench::vdsim {
namespace {

TEST(PresetsTest, AllPresetsProduceValidSpecs) {
  EXPECT_EQ(all_workload_presets().size(), kWorkloadPresetCount);
  for (const WorkloadPreset p : all_workload_presets()) {
    const WorkloadSpec spec = preset_spec(p, 50);
    EXPECT_NO_THROW(spec.validate());
    EXPECT_EQ(spec.num_services, 50u);
    EXPECT_FALSE(preset_key(p).empty());
    EXPECT_FALSE(preset_description(p).empty());
  }
}

TEST(PresetsTest, KeysAreUniqueAndRoundTrip) {
  std::set<std::string_view> keys;
  for (const WorkloadPreset p : all_workload_presets()) {
    EXPECT_TRUE(keys.insert(preset_key(p)).second);
    EXPECT_EQ(preset_from_key(preset_key(p)), p);
  }
  EXPECT_THROW((void)preset_from_key("no_such_corpus"), std::invalid_argument);
}

TEST(PresetsTest, RejectsZeroServices) {
  EXPECT_THROW((void)preset_spec(WorkloadPreset::kWebServices, 0),
               std::invalid_argument);
}

TEST(PresetsTest, ClassMixesMatchTheArchetype) {
  const WorkloadSpec web = preset_spec(WorkloadPreset::kWebServices);
  const WorkloadSpec legacy = preset_spec(WorkloadPreset::kLegacyMonolith);
  const auto share = [](const WorkloadSpec& s, VulnClass c) {
    double total = 0.0;
    for (const double m : s.class_mix) total += m;
    return s.class_mix[vuln_class_index(c)] / total;
  };
  EXPECT_GT(share(web, VulnClass::kSqlInjection),
            share(legacy, VulnClass::kSqlInjection));
  EXPECT_GT(share(legacy, VulnClass::kBufferOverflow),
            share(web, VulnClass::kBufferOverflow));
}

TEST(PresetsTest, HardenedProductIsRare) {
  EXPECT_LT(preset_spec(WorkloadPreset::kHardenedProduct).prevalence, 0.01);
  EXPECT_GT(preset_spec(WorkloadPreset::kLegacyMonolith).prevalence, 0.1);
}

TEST(PresetsTest, GeneratedCorporaDifferStructurally) {
  stats::Rng r1(1), r2(1);
  const Workload micro =
      generate_workload(preset_spec(WorkloadPreset::kMicroservices, 80), r1);
  const Workload firmware = generate_workload(
      preset_spec(WorkloadPreset::kEmbeddedFirmware, 80), r2);
  // Firmware images are far larger than microservices.
  EXPECT_GT(firmware.total_kloc() / 80.0, micro.total_kloc() / 80.0 * 10.0);
  // Firmware seeds mostly memory/integer errors.
  const std::uint64_t fw_memory =
      firmware.vulns_of_class(VulnClass::kBufferOverflow) +
      firmware.vulns_of_class(VulnClass::kIntegerOverflow) +
      firmware.vulns_of_class(VulnClass::kUseAfterFree);
  EXPECT_GT(fw_memory * 2, firmware.total_vulns());
}

}  // namespace
}  // namespace vdbench::vdsim
