#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

}  // namespace

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::vector<std::string> argv_store{binary, "--port", "0"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive a load generator that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  err_fd_ = pipe_fds[0];
  ::fcntl(err_fd_, F_SETFL, ::fcntl(err_fd_, F_GETFL) | O_NONBLOCK);

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  constexpr const char* kMarker = "listening on ";
  while (port_ == 0) {
    pollfd pfd{err_fd_, POLLIN, 0};
    const int left = ms_until(deadline);
    if (left == 0 || ::poll(&pfd, 1, left) < 0) break;
    const std::size_t before = err_.size();
    drain_stderr();
    const std::size_t at = err_.find(kMarker);
    const std::size_t eol =
        at == std::string::npos ? at : err_.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = err_.rfind(':', eol);
      port_ = static_cast<std::uint16_t>(
          std::stoi(err_.substr(colon + 1, eol - colon - 1)));
    } else if (err_.size() == before && (pfd.revents & POLLHUP)) {
      break;  // stderr closed without the startup line: it died
    }
  }
  if (port_ == 0) {
    const std::string text = stderr_text();
    ::kill(pid_, SIGKILL);
    wait_exit(std::chrono::milliseconds(5000));
    throw std::runtime_error("streamrel_serve did not start: " + text);
  }
}

Daemon::~Daemon() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (err_fd_ >= 0) ::close(err_fd_);
}

void Daemon::drain_stderr() {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(err_fd_, buf, sizeof(buf));
    if (n <= 0) return;
    // Keep the diagnostics bounded: only the tail matters.
    if (err_.size() > (1u << 16)) err_.erase(0, err_.size() - (1u << 15));
    err_.append(buf, static_cast<std::size_t>(n));
  }
}

const std::string& Daemon::stderr_text() {
  drain_stderr();
  return err_;
}

bool Daemon::wait_exit(std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (!reaped_) {
    drain_stderr();
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      break;
    }
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

ProcSample Daemon::sample() const {
  ProcSample s;
  if (reaped_) return s;
  const std::string dir = "/proc/" + std::to_string(pid_);
  {
    std::ifstream stat(dir + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    const std::size_t close = text.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(text.substr(close + 2));
      std::string field;
      double utime = 0.0;
      double stime = 0.0;
      for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12) utime = std::stod(field);
        if (i == 13) stime = std::stod(field);
      }
      s.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status(dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_mb = std::stod(line.substr(6)) / 1024.0;
    } else if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::stoi(line.substr(8));
    }
  }
  return s;
}

}  // namespace perfbench
