// vdbenchd sessions for the traced run's serve probes: single sessions and
// an open-loop generator. The generator sends seeded Poisson arrivals with
// at most kMaxInFlight connections out; 9 of 10 sessions request the warm
// study, 1 of 10 refreshes e12. Each session is timed from its due time.
#include <atomic>
#include <mutex>
#include <thread>

#include "harness.h"
#include "json.h"
#include "net/client.h"
#include "workloads.h"

namespace perfbench {

std::vector<std::string> daemon_args() {
  return {"--socket",       kSocketName, "--threads",   std::to_string(kThreads),
          "--cache-dir",    "cache",     "--work-dir",  "work",
          "--max-queue",    "4",         "--deadline-sec", "120",
          "--drain-sec",    "5"};
}

Session run_session(const fs::path& socket, bool refresh, bool want_manifest) {
  net::ClientOptions client;
  client.socket_path = socket.string();
  client.request.experiments = refresh ? "e12" : kWarmStudy;
  client.request.refresh = refresh;
  client.request.quiet = true;
  client.request.want_manifest = want_manifest;
  client.deadline_sec = 60.0;
  NullStream progress;
  net::ClientOutcome outcome = net::run_study(client, progress);
  Session session;
  session.status = outcome.status.status;
  session.exit_code = outcome.status.exit_code;
  session.error = outcome.status.error;
  session.export_json = std::move(outcome.export_json);
  session.manifest_json = std::move(outcome.manifest_json);
  return session;
}

void PhaseCounts::add(const Session& session, bool passed_checks) {
  ++sent;
  if (session.status == "busy" || session.exit_code == net::kExitBusy)
    ++busy;
  else if (session.exit_code == 0 && session.status == "ok" && passed_checks)
    ++succeeded;
  else
    ++failed;
}

std::string PhaseCounts::json() const {
  Json json;
  json.begin_object()
      .key("sent").value(sent)
      .key("succeeded").value(succeeded)
      .key("busy").value(busy)
      .key("failed").value(failed)
      .end_object();
  return json.str();
}

std::string session_failure(const Session& session,
                            const std::string& reference) {
  if (session.exit_code != 0 || session.status != "ok")
    return "session " + session.status + " (exit " +
           std::to_string(session.exit_code) + "): " + session.error;
  return check_identical("session export", reference, session.export_json);
}

LoadResult run_load(const fs::path& socket,
                    const std::vector<Arrival>& schedule,
                    const std::string& reference, OpLedger& ops) {
  LoadResult result;
  result.latency_s.assign(schedule.size(), 0.0);
  result.late_s.assign(schedule.size(), 0.0);
  std::mutex mutex;
  std::string refresh_reference;
  std::atomic<std::size_t> next{0};
  const auto origin = Clock::now();
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        schedule[i].due_s));
      std::this_thread::sleep_until(due);
      const auto started = Clock::now();
      const Session session = run_session(socket, schedule[i].refresh);
      const auto finished = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex);
      result.late_s[i] = std::chrono::duration<double>(started - due).count();
      result.latency_s[i] =
          std::chrono::duration<double>(finished - due).count();
      std::string failure;
      if (schedule[i].refresh) {
        if (refresh_reference.empty() && session.exit_code == 0)
          refresh_reference = session.export_json;
        failure = session_failure(session, refresh_reference);
      } else {
        failure = session_failure(session, reference);
      }
      result.counts.add(session, failure.empty());
      ops.record(failure);
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kMaxInFlight; ++w) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();
  return result;
}

}  // namespace perfbench
