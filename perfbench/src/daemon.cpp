#include "daemon.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

Daemon::Daemon(const std::string& exe, const std::filesystem::path& dir,
               const std::vector<std::string>& args) {
  // Everything the child needs is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> argv_storage;
  argv_storage.push_back(std::filesystem::absolute(exe).string());
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string work = dir.string();
  const std::string log = (dir / "daemon.log").string();
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed for vdbenchd");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (::chdir(work.c_str()) != 0) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() { stop(5.0); }

bool Daemon::wait_ready(const std::filesystem::path& socket, double timeout_s) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < until) {
    if (std::filesystem::exists(socket)) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      stopped_.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

Daemon::Stop Daemon::stop(double grace_s) {
  if (pid_ <= 0) return stopped_;
  ::kill(pid_, SIGTERM);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(grace_s);
  int status = 0;
  bool reaped = false;
  while (std::chrono::steady_clock::now() < until) {
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_ || (got < 0 && errno != EINTR)) {
      reaped = got == pid_;
      stopped_.drained = reaped;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!stopped_.drained) {
    ::kill(pid_, SIGKILL);
    while (!reaped) {
      const pid_t got = ::waitpid(pid_, &status, 0);
      reaped = got == pid_ || (got < 0 && errno != EINTR);
    }
  }
  stopped_.exit_code =
      stopped_.drained && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  return stopped_;
}

}  // namespace perfbench
