#pragma once
// The daemon under test: forks and execs streamrel_serve, learns its
// ephemeral port from the startup line on stderr, samples /proc/<pid>
// while it runs, and reaps it.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One /proc/<pid> reading.
struct ProcSample {
  double cpu_s = 0.0;    ///< utime + stime
  double hwm_mb = 0.0;   ///< VmHWM (peak resident set)
  int threads = 0;       ///< Threads
};

class Daemon {
 public:
  /// Starts `binary --port 0 <args...>` and waits (up to 30 s) for its
  /// "listening on ADDR:PORT" line. Throws std::runtime_error when the
  /// process cannot start or exits first.
  Daemon(const std::string& binary, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  /// Reads /proc/<pid>/stat and /proc/<pid>/status; zeros once reaped.
  ProcSample sample() const;

  /// Waits for the process to exit on its own (after a shutdown verb).
  /// Returns false on timeout; the destructor then kills it.
  bool wait_exit(std::chrono::milliseconds timeout);

  /// True when the process exited with status 0.
  bool exited_cleanly() const noexcept { return reaped_ && exit_status_ == 0; }

  /// Everything the daemon wrote to stderr so far (for diagnostics).
  const std::string& stderr_text();

 private:
  void drain_stderr();

  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
  bool reaped_ = false;
  int exit_status_ = -1;
  std::string err_;
};

}  // namespace perfbench
