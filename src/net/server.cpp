#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "cache/result_cache.h"
#include "cli/driver.h"
#include "fault/injector.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "obs/names.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vdbench::net {

namespace {

using Clock = std::chrono::steady_clock;

// Best-effort final status on a connection that never got a study: short
// write deadline, failures swallowed (the peer may already be gone).
void send_status_best_effort(Socket& socket, const StudyStatus& status) {
  try {
    const Deadline deadline = stats::deadline_after(1.0);
    write_frame(
        [&](const char* src, std::size_t n) {
          socket.write_all(src, n, deadline);
        },
        FrameType::kStatus, encode_status(status), kRoleServer);
  } catch (const TransportError&) {
  }
}

// std::streambuf that forwards driver output to the client as kProgress
// frames, one flush per newline or 8 KiB. A send failure marks the client
// dead and cancels the session's study — output never blocks a study
// beyond its deadline and never throws into the driver.
class ProgressBuf : public std::streambuf {
 public:
  ProgressBuf(Socket& socket, Deadline deadline,
              stats::CancellationToken& token,
              std::atomic<bool>& client_gone)
      : socket_(socket),
        deadline_(deadline),
        token_(token),
        client_gone_(client_gone) {}

  ~ProgressBuf() override { flush(); }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) {
      buffer_.push_back(static_cast<char>(ch));
      if (ch == '\n' || buffer_.size() >= 8192) flush();
    }
    return ch;
  }

  int sync() override {
    flush();
    return 0;
  }

 private:
  void flush() {
    if (buffer_.empty()) return;
    if (client_gone_.load(std::memory_order_relaxed)) {
      buffer_.clear();
      return;
    }
    // Past the session deadline the write would fail on expiry alone and
    // misclassify a live client as vanished, suppressing the final
    // "deadline" status — drop the output instead.
    if (Clock::now() >= deadline_) {
      buffer_.clear();
      return;
    }
    try {
      write_frame(
          [&](const char* src, std::size_t n) {
            socket_.write_all(src, n, deadline_);
          },
          FrameType::kProgress, buffer_, kRoleServer);
    } catch (const TransportError&) {
      client_gone_.store(true, std::memory_order_relaxed);
      token_.request_cancel();
    }
    buffer_.clear();
  }

  Socket& socket_;
  Deadline deadline_;
  stats::CancellationToken& token_;
  std::atomic<bool>& client_gone_;
  std::string buffer_;
};

}  // namespace

Server::Server(const cli::ExperimentRegistry& registry, ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      listener_(options_.socket_path) {
  std::filesystem::create_directories(options_.work_dir);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0)
    throw TransportError("self-pipe creation failed");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

Server::~Server() {
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void Server::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_relaxed);
  const char byte = 'q';
  // write() is async-signal-safe; the pipe is non-blocking, and a full
  // pipe already means a pending wake-up, so the result is ignorable.
  [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
}

void Server::say(std::ostream& log, const std::string& line) {
  const core::MutexLock lock(log_mutex_);
  log << line << "\n";
}

void Server::reject(Socket socket, const std::string& status_name,
                    std::ostream& log) {
  obs::count(obs::Counter::kNetSessionsRejected);
  obs::instant(obs::names::kNetReject, status_name);
  StudyStatus status;
  status.status = status_name;
  status.exit_code = kExitBusy;
  status.error = status_name == "busy"
                     ? "admission queue full; retry later"
                     : "daemon is draining; not accepting studies";
  send_status_best_effort(socket, status);
  say(log, "vdbenchd: rejected connection (" + status_name + ")");
}

void Server::admit_or_reject(Socket socket, std::ostream& log) {
  std::uint64_t id = 0;
  {
    const core::MutexLock lock(mutex_);
    if (!draining_ && queue_.size() < options_.max_queue) {
      id = ++next_session_;
      Pending pending;
      pending.socket = std::move(socket);
      pending.deadline = stats::deadline_after(options_.deadline_sec);
      pending.id = id;
      queue_.push_back(std::move(pending));
      obs::Registry::global().set(obs::Gauge::kNetQueueDepth, queue_.size());
    }
  }
  if (id == 0) {
    reject(std::move(socket),
           drain_requested_.load(std::memory_order_relaxed) ? "draining"
                                                            : "busy",
           log);
    return;
  }
  obs::count(obs::Counter::kNetSessionsAccepted);
  queue_cv_.notify_one();
  say(log, "vdbenchd: admitted session " + std::to_string(id));
}

int Server::run(std::ostream& log) {
  const obs::CounterSnapshot start = obs::Registry::global().snapshot();
  say(log, "vdbenchd: listening on " + options_.socket_path);
  std::thread worker([this, &log] { worker_loop(log); });

  while (!drain_requested_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listener_.fd(), POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;  // re-check the drain flag
      // Anything else (EBADF/EINVAL on a broken listener) would repeat
      // forever — a retry loop here is a 100% CPU spin. Drain instead:
      // in-flight and queued sessions still finish or get a status.
      say(log, std::string("vdbenchd: accept poll failed: ") +
                   std::strerror(errno) + "; draining");
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        drain_requested_.load(std::memory_order_relaxed))
      break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    std::optional<Socket> socket;
    try {
      socket = listener_.accept_one();
    } catch (const TransportError& error) {
      say(log, std::string("vdbenchd: accept failed: ") + error.what());
      continue;
    }
    if (!socket.has_value()) continue;
    // The net.accept point simulates an accept-loop failure AFTER the
    // kernel handed us the connection: the daemon drops it (the client
    // sees EOF) and keeps serving — an accept error is never fatal.
    if (fault::Injector::global().hit("net.accept") != fault::Action::kNone) {
      say(log, "vdbenchd: injected net.accept fault; dropping connection");
      continue;
    }
    admit_or_reject(std::move(*socket), log);
  }

  // --- graceful drain -----------------------------------------------------
  const obs::Span drain_span(obs::names::kNetDrain);
  say(log, "vdbenchd: draining");
  std::deque<Pending> abandoned;
  {
    const core::MutexLock lock(mutex_);
    draining_ = true;
    abandoned.swap(queue_);
    obs::Registry::global().set(obs::Gauge::kNetQueueDepth, 0);
  }
  queue_cv_.notify_all();
  for (Pending& pending : abandoned)
    reject(std::move(pending.socket), "draining", log);
  abandoned.clear();

  // Give the in-flight study its grace, then fire the drain token. It is
  // sticky, so a session that the worker popped but has not started yet
  // still sees it; the request-read phase has its own short deadline
  // (request_sec), and a cancelled driver run still writes its manifest
  // atomically and returns, so the join below is bounded.
  {
    core::MutexLock lock(mutex_);
    const Deadline grace = stats::deadline_after(options_.drain_sec);
    while (worker_busy_ && Clock::now() < grace)
      done_cv_.wait_until(lock, grace);
    if (worker_busy_) {
      drain_token_.request_cancel();
      say(log, "vdbenchd: drain grace expired; cancelling in-flight study");
    }
  }
  worker.join();

  const obs::CounterSnapshot delta =
      obs::Registry::global().snapshot().since(start);
  std::ostringstream summary;
  summary << "vdbenchd: drain summary:"
          << " accepted=" << delta[obs::Counter::kNetSessionsAccepted]
          << " rejected=" << delta[obs::Counter::kNetSessionsRejected]
          << " cancelled=" << delta[obs::Counter::kNetSessionsCancelled]
          << " completed=" << delta[obs::Counter::kNetSessionsCompleted]
          << " bytes_in=" << delta[obs::Counter::kNetBytesIn]
          << " bytes_out=" << delta[obs::Counter::kNetBytesOut]
          << " queue_depth="
          << obs::Registry::global().value(obs::Gauge::kNetQueueDepth);
  say(log, summary.str());
  return 0;
}

void Server::worker_loop(std::ostream& log) {
  for (;;) {
    Pending session;
    {
      core::MutexLock lock(mutex_);
      while (queue_.empty() && !draining_) queue_cv_.wait(lock);
      if (queue_.empty() && draining_) return;
      session = std::move(queue_.front());
      queue_.pop_front();
      obs::Registry::global().set(obs::Gauge::kNetQueueDepth, queue_.size());
      worker_busy_ = true;
    }
    handle_session(std::move(session), log);
    {
      const core::MutexLock lock(mutex_);
      worker_busy_ = false;
    }
    done_cv_.notify_all();
  }
}

void Server::handle_session(Pending session, std::ostream& log) {
  const std::string session_name = "session-" + std::to_string(session.id);
  const obs::Span span(obs::names::kNetSession, session_name);

  // 1. Read and decode the study request. The request frame is a few
  // hundred bytes, so it gets a deadline much shorter than the session's:
  // no token guards this phase yet, and drain must not wait out the full
  // session budget for a client that connected and went silent.
  const Deadline request_deadline =
      std::min(session.deadline, stats::deadline_after(options_.request_sec));
  Frame request_frame;
  try {
    request_frame = read_frame(
        [&](char* dst, std::size_t n) {
          session.socket.read_exact(dst, n, request_deadline);
        },
        kRoleServer);
  } catch (const std::exception& error) {
    say(log, "vdbenchd: " + session_name + " request failed: " +
                 error.what());
    StudyStatus status;
    status.status = "protocol_error";
    status.exit_code = kExitTransport;
    status.error = error.what();
    send_status_best_effort(session.socket, status);
    return;
  }
  std::optional<StudyRequest> request;
  if (request_frame.type == FrameType::kRequest)
    request = decode_request(request_frame.payload);
  if (!request.has_value()) {
    StudyStatus status;
    status.status = "usage";
    status.exit_code = cli::kExitUsage;
    status.error = "malformed study request";
    send_status_best_effort(session.socket, status);
    return;
  }

  // 2. Map the request onto driver options: shared cache, per-session
  // export/manifest/artifact paths under work_dir (crash-safe records).
  const std::filesystem::path work(options_.work_dir);
  cli::DriverOptions driver;
  driver.experiments = request->experiments;
  driver.threads =
      request->threads != 0 ? request->threads : options_.threads;
  driver.cache_dir = options_.cache_dir;
  driver.use_cache = request->use_cache;
  driver.refresh = request->refresh;
  driver.quiet = request->quiet;
  driver.json_out = (work / (session_name + ".export.json")).string();
  driver.manifest_path = (work / (session_name + ".manifest.json")).string();
  driver.artifact_dir = (work / (session_name + ".artifacts")).string();
  std::filesystem::create_directories(driver.artifact_dir);
  driver.retries = request->retries;
  driver.timeout_sec = request->timeout_sec;
  driver.study_seed =
      request->study_seed != 0 ? request->study_seed : options_.study_seed;
  if (Clock::now() >= session.deadline) {
    obs::count(obs::Counter::kNetSessionsCancelled);
    StudyStatus status;
    status.status = "deadline";
    status.exit_code = kExitTransport;
    status.error = "session deadline expired while queued";
    send_status_best_effort(session.socket, status);
    return;
  }

  // 3. Run the study under the session's token, which fires by itself at
  // the session deadline and nests under the drain token; a request's
  // --timeout-sec attempts nest under both, so the deadline, a drain and a
  // vanished client reach every attempt. A watchdog thread cancels the
  // session when the client vanishes mid-study.
  stats::CancellationToken token(session.deadline);
  std::atomic<bool> client_gone{false};
  std::atomic<bool> session_done{false};
  std::thread watchdog([&] {
    while (!session_done.load(std::memory_order_relaxed)) {
      if (session.socket.peer_closed() &&
          !client_gone.load(std::memory_order_relaxed)) {
        client_gone.store(true, std::memory_order_relaxed);
        token.request_cancel();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  cli::RunOutcome outcome;
  {
    const stats::ScopedCancellationToken drain(&drain_token_);
    const stats::ScopedCancellationToken install(&token);
    ProgressBuf progress(session.socket, session.deadline, token,
                         client_gone);
    std::ostream progress_stream(&progress);
    outcome = cli::run_driver(registry_, driver, progress_stream);
  }
  const bool deadline_hit = token.expired();
  session_done.store(true, std::memory_order_relaxed);
  watchdog.join();

  // 4. Final frames: export (+ manifest on request), then exactly one
  // status. Which status depends on why the study ended.
  if (client_gone.load(std::memory_order_relaxed)) {
    obs::count(obs::Counter::kNetSessionsCancelled);
    say(log, "vdbenchd: " + session_name + " client vanished; cancelled");
    return;
  }
  StudyStatus status;
  if (deadline_hit) {
    obs::count(obs::Counter::kNetSessionsCancelled);
    status.status = "deadline";
    status.exit_code = kExitTransport;
    status.error = "per-connection deadline exceeded";
  } else if (drain_token_.cancelled() && outcome.exit_code != cli::kExitOk) {
    obs::count(obs::Counter::kNetSessionsCancelled);
    status.status = "draining";
    status.exit_code = kExitBusy;
    status.error = "study cancelled by daemon drain";
  } else {
    status.status = outcome.status;
    status.exit_code = outcome.exit_code;
  }

  const Deadline send_deadline =
      std::max(session.deadline, stats::deadline_after(2.0));
  const WriteAllFn sink = [&](const char* src, std::size_t n) {
    session.socket.write_all(src, n, send_deadline);
  };
  try {
    if (status.status != "deadline" && status.status != "draining") {
      if (const std::optional<std::string> export_json =
              cache::read_file(driver.json_out);
          export_json.has_value())
        write_frame(sink, FrameType::kExport, *export_json, kRoleServer);
      if (request->want_manifest) {
        if (const std::optional<std::string> manifest =
                cache::read_file(driver.manifest_path);
            manifest.has_value())
          write_frame(sink, FrameType::kManifest, *manifest, kRoleServer);
      }
    }
    write_frame(sink, FrameType::kStatus, encode_status(status), kRoleServer);
  } catch (const TransportError& error) {
    obs::count(obs::Counter::kNetSessionsCancelled);
    say(log, "vdbenchd: " + session_name + " response aborted: " +
                 error.what());
    return;
  }
  if (status.status != "deadline" && status.status != "draining")
    obs::count(obs::Counter::kNetSessionsCompleted);
  say(log, "vdbenchd: " + session_name + " finished: " + status.status +
               " (exit " + std::to_string(status.exit_code) + ")");
}

}  // namespace vdbench::net
