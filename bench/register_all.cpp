#include <cstdint>
#include <vector>

#include "experiments.h"
#include "stats/parallel.h"

namespace vdbench::bench {

void register_probe(cli::ExperimentRegistry& registry) {
  registry.add(
      {"probe", "256-task parallel checksum (fault-drill target)",
       "probe{tasks=256}", /*cacheable=*/false,
       [](cli::ExperimentContext& ctx) {
         const auto scope = ctx.timer.scope(stage::kChecksum);
         constexpr std::size_t kTasks = 256;
         std::vector<std::uint64_t> slots(kTasks, 0);
         stats::parallel_for_indexed(kTasks, [&slots](std::size_t i) {
           // splitmix64-style finalizer of the index: deterministic,
           // thread-count independent, just enough work to claim the slot.
           std::uint64_t x = static_cast<std::uint64_t>(i) +
                             0x9E3779B97F4A7C15ULL;
           x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
           x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
           slots[i] = x ^ (x >> 31);
         });
         std::uint64_t checksum = 0;
         for (const std::uint64_t slot : slots) checksum ^= slot;
         ctx.out << "probe: 256 tasks, checksum=" << checksum << "\n";
       }});
}

cli::ExperimentRegistry study_registry() {
  cli::ExperimentRegistry registry;
  register_e1(registry);
  register_e2(registry);
  register_e3(registry);
  register_e4(registry);
  register_e5(registry);
  register_e6(registry);
  register_e7(registry);
  register_e8(registry);
  register_e9(registry);
  register_e11(registry);
  register_e12(registry);
  register_e13(registry);
  register_e14(registry);
  register_e15(registry);
  register_e16(registry);
  register_e17(registry);
  register_e18(registry);
  register_e19(registry);
  register_probe(registry);
  return registry;
}

}  // namespace vdbench::bench
