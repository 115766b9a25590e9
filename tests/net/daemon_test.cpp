// End-to-end tests for the vdbench daemon (net/server.h + net/client.h):
// byte-identity against a local driver run, shared-cache dedup across
// sessions, admission control, per-connection deadlines, dead-client
// detection, graceful drain, injected net.* faults, and a session whose
// artifact directory cannot be created. Every client request uses
// threads=0 so no session reconfigures the process-wide thread pool out
// from under another test.
#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "cli/driver.h"
#include "cli/experiment.h"
#include "experiments.h"
#include "fault/injector.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "report/json_reader.h"
#include "stats/parallel.h"

namespace vdbench::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// Shared hooks the toy experiments report through. "gate" blocks until
// g_gate is released (honouring cancellation), so tests can hold a
// session in-flight; "cnt" counts actual computations, so tests can prove
// a replay never re-ran the body.
std::atomic<bool> g_gate{false};
std::atomic<bool> g_gate_entered{false};
std::atomic<int> g_count_runs{0};

cli::ExperimentRegistry daemon_registry() {
  cli::ExperimentRegistry registry;
  registry.add({"t1", "writes a line", "toy{n=1}", true,
                [](cli::ExperimentContext& ctx) {
                  ctx.out << "t1 report line\n";
                }});
  registry.add({"cnt", "counts computations", "toy{n=2}", true,
                [](cli::ExperimentContext& ctx) {
                  g_count_runs.fetch_add(1);
                  ctx.out << "cnt report line\n";
                }});
  registry.add({"gate", "blocks until released", "toy{n=3}", false,
                [](cli::ExperimentContext& ctx) {
                  g_gate_entered.store(true);
                  while (!g_gate.load()) {
                    if (ctx.cancellation_requested()) throw stats::Cancelled();
                    std::this_thread::sleep_for(1ms);
                  }
                  ctx.out << "gate opened\n";
                }});
  return registry;
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Injector::global().disarm();
    g_gate.store(false);
    g_gate_entered.store(false);
    g_count_runs.store(0);
    dir_ = fs::temp_directory_path() /
           ("vddaemon_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    options_.socket_path = (dir_ / "d.sock").string();
    options_.cache_dir = (dir_ / "cache").string();
    options_.work_dir = (dir_ / "work").string();
    options_.study_seed = 7;
    base_ = obs::Registry::global().snapshot();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      g_gate.store(true);  // release any straggling gated study
      (void)stop_server();
    }
    fault::Injector::global().disarm();
    fs::remove_all(dir_);
  }

  void start_server() {
    server_ = std::make_unique<Server>(registry_, options_);
    server_thread_ = std::thread([this] { rc_ = server_->run(log_); });
  }

  /// Drain, join, and return the daemon's exit code (0 = clean drain).
  [[nodiscard]] int stop_server() {
    server_->request_drain();
    server_thread_.join();
    server_.reset();
    return rc_;
  }

  [[nodiscard]] ClientOutcome run_client(const std::string& experiments,
                                         bool want_manifest = false,
                                         double timeout_sec = 0.0) {
    ClientOptions options;
    options.socket_path = options_.socket_path;
    options.request.experiments = experiments;
    options.request.threads = 0;
    options.request.want_manifest = want_manifest;
    options.request.timeout_sec = timeout_sec;
    options.deadline_sec = 30.0;
    std::ostringstream progress;
    return run_study(options, progress);
  }

  /// Counter delta since SetUp (the obs registry is process-global).
  [[nodiscard]] std::uint64_t delta(obs::Counter counter) const {
    return obs::Registry::global().snapshot().since(base_)[counter];
  }

  [[nodiscard]] static bool wait_until(const std::function<bool()>& ready,
                                       std::chrono::seconds budget = 10s) {
    const auto stop = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < stop) {
      if (ready()) return true;
      std::this_thread::sleep_for(5ms);
    }
    return ready();
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  static void write_raw_frame(Socket& socket, FrameType type,
                              const std::string& payload) {
    write_frame(
        [&](const char* src, std::size_t n) {
          socket.write_all(src, n, no_deadline());
        },
        type, payload, kRoleClient);
  }

  static Frame read_raw_frame(Socket& socket) {
    const Deadline deadline = std::chrono::steady_clock::now() + 10s;
    return read_frame(
        [&](char* dst, std::size_t n) {
          socket.read_exact(dst, n, deadline);
        },
        kRoleClient);
  }

  fs::path dir_;
  cli::ExperimentRegistry registry_ = daemon_registry();
  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread server_thread_;
  std::ostringstream log_;
  int rc_ = -1;
  obs::CounterSnapshot base_;
};

TEST_F(DaemonTest, ColdAndWarmClientExportsMatchALocalDriverRun) {
  // Local baseline first (its own cache, so the daemon's stays cold). It
  // must finish before any daemon session starts: the process-wide
  // cancellation chain makes concurrent driver runs in one process unsound.
  cli::DriverOptions baseline;
  baseline.experiments = "all";
  baseline.cache_dir = (dir_ / "baseline_cache").string();
  baseline.manifest_path = (dir_ / "baseline_manifest.json").string();
  baseline.artifact_dir = dir_.string();
  baseline.json_out = (dir_ / "baseline.json").string();
  baseline.study_seed = 7;
  baseline.quiet = true;
  std::ostringstream out;
  ASSERT_EQ(cli::run_driver(registry_, baseline, out).exit_code, 0);
  const std::string expected = slurp(dir_ / "baseline.json");
  ASSERT_FALSE(expected.empty());
  g_count_runs.store(0);

  start_server();
  const ClientOutcome cold = run_client("all", /*want_manifest=*/true);
  EXPECT_EQ(cold.status.status, "ok");
  EXPECT_EQ(cold.status.exit_code, 0);
  EXPECT_EQ(cold.export_json, expected);  // byte-identical, cold
  ASSERT_FALSE(cold.manifest_json.empty());
  EXPECT_TRUE(report::parse_json(cold.manifest_json).has_value());

  const ClientOutcome warm = run_client("all");
  EXPECT_EQ(warm.status.exit_code, 0);
  EXPECT_EQ(warm.export_json, expected);  // byte-identical, warm
  EXPECT_EQ(g_count_runs.load(), 1);      // warm replayed from the cache
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, DeadlinesPastTheClocksRangeNeverFire) {
  // 1e20 s lies past steady_clock's range: the session's and the client's
  // deadlines saturate to "never" instead of wrapping into the past.
  options_.deadline_sec = 1e20;
  start_server();
  ClientOptions options;
  options.socket_path = options_.socket_path;
  options.request.experiments = "t1";
  options.deadline_sec = 1e20;
  std::ostringstream progress;
  const ClientOutcome outcome = run_study(options, progress);
  EXPECT_EQ(outcome.status.status, "ok") << outcome.status.error;
  EXPECT_EQ(outcome.status.exit_code, 0);
  EXPECT_FALSE(outcome.export_json.empty());
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, ConcurrentSessionsForOneStudyComputeItOnce) {
  start_server();
  ClientOutcome first;
  ClientOutcome second;
  std::thread one([&] { first = run_client("cnt"); });
  std::thread two([&] { second = run_client("cnt"); });
  one.join();
  two.join();
  EXPECT_EQ(first.status.exit_code, 0);
  EXPECT_EQ(second.status.exit_code, 0);
  // One computation, two byte-identical results, one cache entry.
  EXPECT_EQ(g_count_runs.load(), 1);
  ASSERT_FALSE(first.export_json.empty());
  EXPECT_EQ(first.export_json, second.export_json);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(options_.cache_dir))
    if (entry.path().extension() == ".vdc") ++entries;
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, AdmissionBeyondTheQueueBoundIsRejectedBusy) {
  options_.max_queue = 1;
  start_server();
  ClientOutcome active;
  ClientOutcome queued;
  std::thread one([&] { active = run_client("gate"); });
  ASSERT_TRUE(wait_until([] { return g_gate_entered.load(); }));
  std::thread two([&] { queued = run_client("gate"); });
  ASSERT_TRUE(wait_until(
      [&] { return delta(obs::Counter::kNetSessionsAccepted) >= 2; }));

  // One active + one queued fills the envelope; the third is told so.
  const ClientOutcome refused = run_client("t1");
  EXPECT_EQ(refused.status.status, "busy");
  EXPECT_EQ(refused.status.exit_code, kExitBusy);
  EXPECT_GE(delta(obs::Counter::kNetSessionsRejected), 1u);

  g_gate.store(true);
  one.join();
  two.join();
  EXPECT_EQ(active.status.exit_code, 0);
  EXPECT_EQ(queued.status.exit_code, 0);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, SessionDeadlineCancelsOnlyItsOwnStudy) {
  options_.deadline_sec = 0.5;
  start_server();
  const ClientOutcome overran = run_client("gate");  // never released
  EXPECT_EQ(overran.status.status, "deadline");
  EXPECT_EQ(overran.status.exit_code, kExitTransport);
  EXPECT_GE(delta(obs::Counter::kNetSessionsCancelled), 1u);

  // The daemon is unharmed: the next session runs to a clean status.
  const ClientOutcome next = run_client("t1");
  EXPECT_EQ(next.status.status, "ok");
  EXPECT_EQ(next.status.exit_code, 0);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, VanishedClientIsDetectedAndCancelled) {
  start_server();
  {
    Socket raw = connect_unix(options_.socket_path);
    StudyRequest request;
    request.experiments = "gate";
    write_raw_frame(raw, FrameType::kRequest, encode_request(request));
    ASSERT_TRUE(wait_until([] { return g_gate_entered.load(); }));
  }  // scope exit closes the socket: the client vanishes mid-study
  ASSERT_TRUE(wait_until(
      [&] { return delta(obs::Counter::kNetSessionsCancelled) >= 1; }));
  const ClientOutcome next = run_client("t1");
  EXPECT_EQ(next.status.exit_code, 0);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, DrainAnswersDrainingAndLeavesParseableManifests) {
  options_.drain_sec = 0.2;
  start_server();
  ClientOutcome inflight;
  std::thread one([&] { inflight = run_client("gate"); });
  ASSERT_TRUE(wait_until([] { return g_gate_entered.load(); }));

  EXPECT_EQ(stop_server(), 0);  // SIGTERM path: drain grace, cancel, exit 0
  one.join();
  EXPECT_EQ(inflight.status.status, "draining");
  EXPECT_EQ(inflight.status.exit_code, kExitBusy);

  // The cancelled session still left an atomically-written, parseable
  // manifest — a daemon killed at any instant never tears its records.
  std::size_t manifests = 0;
  for (const auto& entry : fs::directory_iterator(options_.work_dir)) {
    if (entry.path().filename().string().find(".manifest.json") ==
        std::string::npos)
      continue;
    ++manifests;
    const std::string body = slurp(entry.path());
    ASSERT_FALSE(body.empty());
    EXPECT_TRUE(report::parse_json(body).has_value()) << entry.path();
  }
  EXPECT_GE(manifests, 1u);
  EXPECT_NE(log_.str().find("drain summary"), std::string::npos);
}

// A request's timeout_sec gives each attempt a token of its own. The
// session's drain, vanished client and deadline must still reach the study
// under it, instead of waiting out the attempt's 30 s.
TEST_F(DaemonTest, DrainReachesAStudyUnderARequestTimeout) {
  options_.drain_sec = 0.2;
  start_server();
  ClientOutcome inflight;
  std::thread one([&] {
    inflight = run_client("gate", /*want_manifest=*/false,
                          /*timeout_sec=*/30.0);
  });
  ASSERT_TRUE(wait_until([] { return g_gate_entered.load(); }));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(stop_server(), 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  one.join();
  EXPECT_EQ(inflight.status.status, "draining");
  EXPECT_EQ(inflight.status.exit_code, kExitBusy);
}

TEST_F(DaemonTest, VanishedClientReachesAStudyUnderARequestTimeout) {
  start_server();
  {
    Socket raw = connect_unix(options_.socket_path);
    StudyRequest request;
    request.experiments = "gate";
    request.threads = 0;
    request.timeout_sec = 30.0;
    write_raw_frame(raw, FrameType::kRequest, encode_request(request));
    ASSERT_TRUE(wait_until([] { return g_gate_entered.load(); }));
  }  // scope exit closes the socket: the client vanishes mid-study
  ASSERT_TRUE(wait_until(
      [&] { return delta(obs::Counter::kNetSessionsCancelled) >= 1; }, 5s));
  const ClientOutcome next = run_client("t1");
  EXPECT_EQ(next.status.exit_code, 0);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, InjectedNetFaultsDegradeToStatusesNotCrashes) {
  start_server();
  const char* specs[] = {
      "net.read=io_error@server:1",
      "net.frame=corrupt@server:1",
      "net.write=io_error@server:1",
      "net.accept=io_error@1",
  };
  for (const char* spec : specs) {
    fault::Injector::global().arm(spec);
    const ClientOutcome hurt = run_client("t1");
    EXPECT_NE(hurt.status.exit_code, 0) << spec;
    fault::Injector::global().disarm();
    // The daemon survives every leg and serves the next session cleanly.
    const ClientOutcome clean = run_client("t1");
    EXPECT_EQ(clean.status.status, "ok") << spec;
    EXPECT_EQ(clean.status.exit_code, 0) << spec;
  }
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, AnUncreatableArtifactDirectoryEndsNoSession) {
  // A regular file where session-1's artifact directory would go. The
  // driver creates that directory only to write an artifact into it, and
  // e1 writes none, so the session ends ok and the daemon serves on.
  fs::create_directories(options_.work_dir);
  std::ofstream(fs::path(options_.work_dir) / "session-1.artifacts") << "x";
  registry_ = bench::study_registry();
  start_server();
  const ClientOutcome first = run_client("e1");
  EXPECT_EQ(first.status.status, "ok") << first.status.error;
  const ClientOutcome second = run_client("e1");
  EXPECT_EQ(second.status.status, "ok") << second.status.error;
  EXPECT_EQ(second.export_json, first.export_json);
  EXPECT_EQ(stop_server(), 0);
}

TEST_F(DaemonTest, MalformedRequestsGetAUsageStatus) {
  start_server();
  {
    Socket raw = connect_unix(options_.socket_path);
    write_raw_frame(raw, FrameType::kRequest, "definitely not json");
    const Frame frame = read_raw_frame(raw);
    ASSERT_EQ(frame.type, FrameType::kStatus);
    const std::optional<StudyStatus> status = decode_status(frame.payload);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->status, "usage");
    EXPECT_EQ(status->exit_code, cli::kExitUsage);
  }
  {
    // A well-formed frame of the wrong type is equally a usage error.
    Socket raw = connect_unix(options_.socket_path);
    write_raw_frame(raw, FrameType::kProgress, "{}");
    const Frame frame = read_raw_frame(raw);
    ASSERT_EQ(frame.type, FrameType::kStatus);
    const std::optional<StudyStatus> status = decode_status(frame.payload);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->status, "usage");
  }
  EXPECT_EQ(stop_server(), 0);
}

}  // namespace
}  // namespace vdbench::net
