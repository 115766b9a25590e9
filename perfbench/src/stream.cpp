// stream: E18's spec at 10^7 sites through stream::stream_evaluate,
// recorded to a VDRLOG01 report log, then replayed from that log; the
// replayed counts must equal the recorded ones. Setup is scratch only.
#include "experiments.h"
#include "harness.h"
#include "procfs.h"
#include "workloads.h"

namespace perfbench {

stream::StreamSpec stream_spec(std::uint64_t seed) {
  stream::StreamSpec spec = bench::e18_stream_spec();
  spec.total_sites = kStreamSites;
  spec.seed = derive_seed(seed, "stream");
  return spec;
}

StreamCounts counts_of(const stream::StreamResult& result) {
  return {result.cm.tp, result.cm.fp, result.cm.tn, result.cm.fn,
          result.sites, result.chunks};
}

namespace {

constexpr int kSetupRepeats = 41;

}  // namespace

RunReport run_stream(const Options& options) {
  RunReport report;

  const std::vector<double> setup_s = time_setups(options, kSetupRepeats);
  const fs::path dir = setup_dir(options, kSetupRepeats - 1);
  const stream::StreamSpec spec = stream_spec(options.seed);

  const fs::path log = dir / "op.vdrlog";
  // One op: record the stream, replay the log; returns the failure, if any.
  const auto op = [&] {
    stream::StreamResult recorded;
    {
      stream::ReportLogWriter writer(log);
      recorded = stream::stream_evaluate(spec, {}, {&writer, nullptr});
      writer.close();
    }
    stream::ReportLogReader reader(log);
    const stream::StreamResult replayed =
        stream::stream_evaluate(spec, {}, {nullptr, &reader});
    return check_stream_counts(counts_of(recorded), counts_of(replayed),
                               spec.total_sites);
  };
  // Warm-up, untimed: one op, so the first timed one does not pay for idle
  // CPUs coming up to speed.
  report.ops.record(op());
  fs::remove(log);
  reset_peak_rss();

  std::vector<double> op_s;
  for (RunClock clock(options.seconds); clock.another(); clock.done(op_s.back())) {
    const auto op_start = Clock::now();
    const std::string failure = op();
    op_s.push_back(seconds_since(op_start));
    report.ops.record(failure);
    fs::remove(log);
  }
  add_end_to_end(report, setup_s, op_s, peak_rss_kib());
  return report;
}

}  // namespace perfbench
