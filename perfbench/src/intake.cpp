// intake: scoring tool reports against a large ground truth. Setup
// synthesizes E19's four ecosystems at 50,000 sites each and renders every
// built-in tool's SARIF report; one op is an in-process
// `vdbench --experiments e19 --sarif-report <tool> --ground-truth <truth>`
// with the cache bypassed. Runs cover whole rotations of the six reports.
#include "corpus/synthetic.h"
#include "experiments.h"
#include "harness.h"
#include "procfs.h"
#include "vdsim/tool.h"
#include "workloads.h"

namespace perfbench {

IntakeInputs intake_inputs(const fs::path& dir) {
  IntakeInputs inputs;
  inputs.truth = dir / "truth.json";
  for (const vdsim::ToolProfile& tool : vdsim::builtin_tools()) {
    inputs.reports.push_back(
        dir / ("tool-" + std::to_string(inputs.tools.size()) + ".sarif.json"));
    inputs.tools.push_back(tool.name);
  }
  return inputs;
}

IntakeInputs write_intake_inputs(const fs::path& dir, std::uint64_t seed) {
  corpus::SyntheticCorpusSpec spec;
  spec.name = "intake";
  spec.seed = derive_seed(seed, "intake");
  for (const corpus::SyntheticCorpusSpec& e19 : bench::e19_corpus_specs()) {
    for (corpus::SyntheticEcosystemSpec eco : e19.ecosystems) {
      eco.sites = kSitesPerEcosystem;
      spec.ecosystems.push_back(eco);
    }
  }
  fs::create_directories(dir);
  const IntakeInputs inputs = intake_inputs(dir);
  const corpus::Manifest manifest = corpus::synthesize_manifest(spec);
  write_file(inputs.truth, corpus::render_manifest(manifest));
  const std::vector<vdsim::ToolProfile> tools = vdsim::builtin_tools();
  for (std::size_t t = 0; t < tools.size(); ++t)
    write_file(inputs.reports[t],
               corpus::render_sarif_report(
                   corpus::synthesize_report(spec, manifest, tools[t])));
  return inputs;
}

namespace {

constexpr int kSetupRepeats = 5;

}  // namespace

RunReport run_intake(const Options& options) {
  RunReport report;
  const std::vector<double> setup_s = time_setups(options, kSetupRepeats);
  const fs::path dir = setup_dir(options, kSetupRepeats - 1);
  for (int i = 0; i + 1 < kSetupRepeats; ++i) fs::remove_all(setup_dir(options, i));
  const IntakeInputs inputs = intake_inputs(dir);
  const cli::ExperimentRegistry registry = bench::study_registry();
  const auto intake_op = [&](std::size_t tool) {
    cli::DriverOptions op = study_options("e19", dir, "op", dir / "cache");
    op.use_cache = false;
    op.sarif_report = inputs.reports[tool].string();
    op.ground_truth = inputs.truth.string();
    return op;
  };
  // Warm-up, untimed: one op, so the first timed one does not pay for the
  // allocator's first touch of its ~250 MiB working set.
  {
    NullStream sink;
    (void)cli::run_driver(registry, intake_op(0), sink);
  }
  reset_peak_rss();

  RotationCheck rotation_check;
  std::vector<double> op_s;
  for (RunClock clock(options.seconds); clock.another();) {
    const auto rotation_start = Clock::now();
    for (std::size_t tool = 0; tool < inputs.reports.size(); ++tool) {
      const cli::DriverOptions op = intake_op(tool);
      NullStream sink;
      const auto op_start = Clock::now();
      const cli::RunOutcome outcome = cli::run_driver(registry, op, sink);
      op_s.push_back(seconds_since(op_start));
      report.ops.record(
          outcome.exit_code != cli::kExitOk
              ? "intake e19 on tool " + std::to_string(tool) + " exited " +
                    std::to_string(outcome.exit_code)
              : rotation_check.check(tool, read_file(op.json_out)));
      fs::remove(op.json_out);
    }
    clock.done(seconds_since(rotation_start));
  }
  if (const std::string failure = rotation_check.whole_rotations(inputs.reports.size());
      !failure.empty())
    report.ops.record(failure);
  add_end_to_end(report, setup_s, op_s, peak_rss_kib());
  report.note("rotations",
              std::to_string(op_s.size() / inputs.reports.size()));
  return report;
}

}  // namespace perfbench
