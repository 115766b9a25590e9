// vdbenchd as a child process the harness owns. The daemon runs in its
// work directory with a relative socket path (unix socket paths are
// length-limited), dies with the harness (PR_SET_PDEATHSIG), and is always
// drained — or killed when it does not drain — and reaped, on every exit
// path including exceptions.
#pragma once

#include <filesystem>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts `exe args...` with `dir` as its working directory, stdout and
  /// stderr appended to `dir`/daemon.log. Throws when fork/exec fails.
  Daemon(const std::string& exe, const std::filesystem::path& dir,
         const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Wait until `socket` exists; false when the daemon exits or the
  /// timeout passes first.
  [[nodiscard]] bool wait_ready(const std::filesystem::path& socket,
                                double timeout_s);

  struct Stop {
    bool drained = false;  ///< exited by itself after SIGTERM
    int exit_code = -1;    ///< -1 when killed by a signal
  };
  /// SIGTERM, wait up to `grace_s`, then SIGKILL; always reaps. Idempotent.
  Stop stop(double grace_s);

 private:
  pid_t pid_ = -1;
  Stop stopped_;
};

}  // namespace perfbench
