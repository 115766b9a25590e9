// `vdbenchd`: the long-running benchmark daemon.
//
// The server accepts study requests over a unix-domain socket, runs them
// through the exact same `cli::run_driver` path as the `vdbench` CLI —
// same experiments, same supervisor, same cache discipline — and streams
// progress, the JSON export, and a final status back as checksummed
// frames (net/frame.h). One shared content-addressed cache serves every
// session, so a study computed for one client replays from disk for the
// next.
//
// Robustness envelope, by construction:
//
//  * Bounded admission: at most `max_queue` sessions wait behind the
//    active one. A connection beyond that is answered with an explicit
//    "busy" status and closed — the daemon rejects loudly instead of
//    queueing without bound or hanging the client.
//  * Per-connection deadlines: each session gets `deadline_sec` of wall
//    clock from admission to final status. The session's study runs under
//    a CancellationToken carrying that deadline, so a slow or dead client
//    affects only its own study; a vanished client (EOF on probe) is
//    detected mid-study and cancels the same token. A request's
//    `timeout_sec` attempts nest their own tokens under it, so neither
//    the deadline nor a vanished client can be outlived by an attempt.
//  * Serialized execution, shared concurrency: sessions run one at a
//    time on a worker thread, each fanning out across the process-wide
//    ParallelExecutor. The process-wide cancellation chain
//    (stats::ScopedCancellationToken) makes concurrent driver runs in
//    one process unsound, so admission ordering — not interleaving — is
//    the concurrency model, and the shared cache turns repeat studies
//    into O(ms) replays.
//  * Crash-safe session records: every session writes its own run
//    manifest (`session-<n>.manifest.json` under `work_dir`) through the
//    same atomic-rename discipline as the CLI, so a daemon killed at any
//    instant leaves parseable per-session records, never torn files.
//  * Graceful drain: request_drain() (async-signal-safe, wired to
//    SIGTERM/SIGINT by the binary) stops accepting, answers queued
//    sessions with "draining", gives the in-flight study `drain_sec` to
//    finish, then fires one sticky drain token that every session's token
//    nests under, flushes a drain summary of the net.* counters and
//    returns 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>

#include "cli/experiment.h"
#include "core/thread_annotations.h"
#include "net/socket.h"
#include "stats/parallel.h"

namespace vdbench::net {

struct ServerOptions {
  std::string socket_path = "vdbenchd.sock";
  /// Sessions allowed to wait behind the active one; beyond this a new
  /// connection is rejected with a "busy" status.
  std::size_t max_queue = 4;
  /// Wall-clock budget per session, admission → final status.
  double deadline_sec = 30.0;
  /// Budget for reading the (tiny) request frame after admission. This
  /// phase runs before the session's CancellationToken exists, so its
  /// deadline — not a cancel — is what bounds drain when a client
  /// connects and then stalls without sending a request.
  double request_sec = 5.0;
  /// Grace an in-flight study gets on drain before cancellation.
  double drain_sec = 5.0;
  std::size_t threads = 0;       ///< parallel-engine default for sessions
  std::string cache_dir;         ///< shared result cache ("" = driver default)
  std::string work_dir = ".vdbenchd";  ///< session manifests/exports/artifacts
  std::uint64_t study_seed = 0;  ///< default seed when a request sends none
};

class Server {
 public:
  /// Binds and listens on options.socket_path (throws TransportError when
  /// that fails) and creates options.work_dir. Serving starts with run().
  Server(const cli::ExperimentRegistry& registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until request_drain(); returns 0 after a clean drain. All
  /// human-readable daemon output goes to `log`.
  [[nodiscard]] int run(std::ostream& log);

  /// Begin a graceful drain. Async-signal-safe (an atomic store and one
  /// pipe write), idempotent, callable from any thread or signal handler.
  void request_drain() noexcept;

 private:
  struct Pending {
    Socket socket;
    Deadline deadline;
    std::uint64_t id = 0;
  };

  void worker_loop(std::ostream& log);
  void handle_session(Pending session, std::ostream& log);
  void admit_or_reject(Socket socket, std::ostream& log);
  void reject(Socket socket, const std::string& status, std::ostream& log);
  /// Serialized daemon logging: the accept loop and the session worker
  /// share `log`, so every line goes through one mutex.
  void say(std::ostream& log, const std::string& line);

  const cli::ExperimentRegistry& registry_;
  const ServerOptions options_;
  Listener listener_;
  int wake_read_ = -1;   ///< self-pipe: signal handler → accept loop
  int wake_write_ = -1;
  std::atomic<bool> drain_requested_{false};
  /// Fired when the drain grace expires. Every session's token nests under
  /// it, and it stays fired, so no session can start and miss it.
  stats::CancellationToken drain_token_;

  core::Mutex mutex_;
  /// Wakes the worker on admission and drain; done_cv_ wakes the drain
  /// path when the in-flight session finishes.
  std::condition_variable_any queue_cv_;
  std::condition_variable_any done_cv_;
  std::deque<Pending> queue_ VDBENCH_GUARDED_BY(mutex_);
  bool draining_ VDBENCH_GUARDED_BY(mutex_) = false;
  bool worker_busy_ VDBENCH_GUARDED_BY(mutex_) = false;
  std::uint64_t next_session_ VDBENCH_GUARDED_BY(mutex_) = 0;
  core::Mutex log_mutex_;
};

}  // namespace vdbench::net
